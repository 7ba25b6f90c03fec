package lint

import "go/ast"

// stmtVisitor is what an ordered statement walk reports to its pass.
// The walk owns the recursion through compound statements; the pass
// sees each simple statement once, in source order, and each
// expression the compound statements evaluate themselves.
type stmtVisitor interface {
	// stmt receives every statement that is not compound — a range
	// statement counts with its header only, its body is walked.
	stmt(ast.Stmt)
	// expr receives a condition, a switch tag or a case value.
	expr(ast.Expr)
}

// brancher is a stmtVisitor that walks the two branches of an if-else
// itself, from the same state, and merges what they leave.
type brancher interface {
	branches(then *ast.BlockStmt, els ast.Stmt)
}

func walkStmts(v stmtVisitor, list []ast.Stmt) {
	for _, s := range list {
		walkStmt(v, s)
	}
}

// walkStmt walks s in execution order: a for loop is Init, Cond, Body,
// Post.
func walkStmt(v stmtVisitor, s ast.Stmt) {
	switch s := s.(type) {
	case nil:
	case *ast.BlockStmt:
		walkStmts(v, s.List)
	case *ast.LabeledStmt:
		walkStmt(v, s.Stmt)
	case *ast.IfStmt:
		walkStmt(v, s.Init)
		v.expr(s.Cond)
		if b, ok := v.(brancher); ok && s.Else != nil {
			b.branches(s.Body, s.Else)
			return
		}
		walkStmts(v, s.Body.List)
		walkStmt(v, s.Else)
	case *ast.ForStmt:
		walkStmt(v, s.Init)
		if s.Cond != nil {
			v.expr(s.Cond)
		}
		walkStmts(v, s.Body.List)
		walkStmt(v, s.Post)
	case *ast.RangeStmt:
		v.stmt(s)
		walkStmts(v, s.Body.List)
	case *ast.SwitchStmt:
		walkStmt(v, s.Init)
		if s.Tag != nil {
			v.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			cc := c.(*ast.CaseClause)
			for _, e := range cc.List {
				v.expr(e)
			}
			walkStmts(v, cc.Body)
		}
	case *ast.TypeSwitchStmt:
		walkStmt(v, s.Init)
		walkStmt(v, s.Assign)
		for _, c := range s.Body.List {
			walkStmts(v, c.(*ast.CaseClause).Body)
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			walkStmt(v, cc.Comm)
			walkStmts(v, cc.Body)
		}
	default:
		v.stmt(s)
	}
}
