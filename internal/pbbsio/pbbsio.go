// Package pbbsio writes the Problem Based Benchmark Suite's text file
// formats, so this reproduction can hand inputs to the original C++
// PBBS and the Rust RPB, and reads the one format a program here takes
// in (rpbgen -in):
//
//	sequenceInt                 "sequenceInt" header, one integer per line
//	AdjacencyGraph              offsets then edge targets (CSR); read and written
//	WeightedAdjacencyGraph      offsets, targets, then edge weights
//	pbbs_sequencePoint2d        x y pairs, one point per line
//
// The reader validates structure (counts, ranges, order) and returns
// errors rather than panicking on malformed files; the counts a header
// claims reserve no more than a capped capacity until the entries that
// back them arrive.
package pbbsio

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"

	"repro/internal/graph"
	"repro/internal/seqgen"
)

// headerCap caps the capacity a header's counts reserve before any
// entry arrives: a 37-byte file may claim two billion vertices.
const headerCap = 1 << 16

// Format headers as PBBS writes them.
const (
	HeaderSequenceInt   = "sequenceInt"
	HeaderAdjacency     = "AdjacencyGraph"
	HeaderWeightedAdj   = "WeightedAdjacencyGraph"
	HeaderSequencePoint = "pbbs_sequencePoint2d"
)

// scanner reads whitespace-separated tokens, counting the lines they
// sit on for error reporting.
type scanner struct {
	s       *bufio.Scanner
	line    int // line of the last token read
	skipped int // newlines consumed since it
}

func newScanner(r io.Reader) *scanner {
	sc := &scanner{s: bufio.NewScanner(r), line: 1}
	sc.s.Buffer(make([]byte, 1<<16), 1<<24)
	sc.s.Split(sc.words)
	return sc
}

// words is bufio.ScanWords that counts the newlines it consumes: those
// in front of a token move line to the token's, the one delimiting it
// counts toward the next.
func (sc *scanner) words(data []byte, atEOF bool) (int, []byte, error) {
	adv, tok, err := bufio.ScanWords(data, atEOF)
	nl := bytes.Count(data[:adv], []byte{'\n'})
	if tok == nil {
		sc.skipped += nl
		return adv, tok, err
	}
	trailing := 0
	if data[adv-1] == '\n' {
		trailing = 1
	}
	sc.line += sc.skipped + nl - trailing
	sc.skipped = trailing
	return adv, tok, err
}

func (sc *scanner) next() (string, error) {
	if sc.s.Scan() {
		return sc.s.Text(), nil
	}
	if err := sc.s.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("pbbsio: unexpected end of file at line %d", sc.line)
}

func (sc *scanner) nextInt() (int64, error) {
	tok, err := sc.next()
	if err != nil {
		return 0, err
	}
	v, err := strconv.ParseInt(tok, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("pbbsio: line %d: %w", sc.line, err)
	}
	return v, nil
}

func expectHeader(sc *scanner, want string) error {
	got, err := sc.next()
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("pbbsio: bad header %q, want %q", got, want)
	}
	return nil
}

// WriteSequenceInt writes xs in PBBS sequenceInt format.
func WriteSequenceInt(w io.Writer, xs []uint32) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintln(bw, HeaderSequenceInt); err != nil {
		return err
	}
	for _, x := range xs {
		if _, err := fmt.Fprintln(bw, x); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// WriteAdjacencyGraph writes g in PBBS AdjacencyGraph format: header,
// n, m, n offsets, m edge targets.
func WriteAdjacencyGraph(w io.Writer, g *graph.Graph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, HeaderAdjacency)
	fmt.Fprintln(bw, g.N)
	fmt.Fprintln(bw, g.M())
	for v := int32(0); v < g.N; v++ {
		fmt.Fprintln(bw, g.Offs[v])
	}
	for _, u := range g.Adj {
		fmt.Fprintln(bw, u)
	}
	return bw.Flush()
}

// ReadAdjacencyGraph parses a PBBS AdjacencyGraph file into CSR form.
func ReadAdjacencyGraph(r io.Reader) (*graph.Graph, error) {
	sc := newScanner(r)
	if err := expectHeader(sc, HeaderAdjacency); err != nil {
		return nil, err
	}
	n, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	m, err := sc.nextInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || m < 0 || n > 1<<31-2 || m > 1<<31-2 {
		return nil, fmt.Errorf("pbbsio: implausible sizes n=%d m=%d", n, m)
	}
	g := &graph.Graph{N: int32(n), Offs: make([]int32, 0, min(n, headerCap)+1)}
	prev := int64(0)
	for v := int64(0); v < n; v++ {
		off, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		if off < prev || off > m {
			return nil, fmt.Errorf("pbbsio: offset %d of vertex %d out of order", off, v)
		}
		g.Offs = append(g.Offs, int32(off))
		prev = off
	}
	g.Offs = append(g.Offs, int32(m))
	g.Adj = make([]int32, 0, min(m, headerCap))
	for e := int64(0); e < m; e++ {
		t, err := sc.nextInt()
		if err != nil {
			return nil, err
		}
		if t < 0 || t >= n {
			return nil, fmt.Errorf("pbbsio: edge target %d out of range", t)
		}
		g.Adj = append(g.Adj, int32(t))
	}
	return g, nil
}

// WriteWeightedAdjacencyGraph writes g with per-edge weights appended.
func WriteWeightedAdjacencyGraph(w io.Writer, g *graph.WGraph) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, HeaderWeightedAdj)
	fmt.Fprintln(bw, g.N)
	fmt.Fprintln(bw, g.M())
	for v := int32(0); v < g.N; v++ {
		fmt.Fprintln(bw, g.Offs[v])
	}
	for _, u := range g.Adj {
		fmt.Fprintln(bw, u)
	}
	for _, wt := range g.Wgt {
		fmt.Fprintln(bw, wt)
	}
	return bw.Flush()
}

// WritePoints2D writes points in pbbs_sequencePoint2d format.
func WritePoints2D(w io.Writer, pts []seqgen.Point) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintln(bw, HeaderSequencePoint)
	for _, p := range pts {
		fmt.Fprintln(bw, p.X, p.Y)
	}
	return bw.Flush()
}
