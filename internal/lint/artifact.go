package lint

// The artifact discipline the three certification passes share: every
// site leads with its source position, reports are sorted by it, the
// committed lint-*.json files are the canonical indented JSON of the
// report, and an unexplained refusal (no //lint:scared marker) counts
// against the gate wherever in the module it sits.

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"os"
	"sort"
	"strings"
)

// sitePos is the source position every certificate site leads with.
type sitePos struct {
	File string `json:"file"` // relative to the module root
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

func (a *analysis) sitePos(f *fileInfo, n ast.Node) sitePos {
	pos := a.fset.Position(n.Pos())
	return sitePos{File: f.rel, Line: pos.Line, Col: pos.Column}
}

func (p sitePos) position() sitePos { return p }

// sortSites orders a report's sites by position, keeping the pass's
// emission order among sites at one position.
func sortSites[S interface{ position() sitePos }](sites []S) {
	sort.SliceStable(sites, func(i, j int) bool {
		p, q := sites[i].position(), sites[j].position()
		if p.File != q.File {
			return p.File < q.File
		}
		if p.Line != q.Line {
			return p.Line < q.Line
		}
		return p.Col < q.Col
	})
}

// renderSites is the per-site table plus summary line a pass prints.
func renderSites[S fmt.Stringer](sites []S, summary string) string {
	var sb strings.Builder
	for _, s := range sites {
		sb.WriteString(s.String())
		sb.WriteByte('\n')
	}
	sb.WriteString(summary)
	return sb.String()
}

// marshalArtifact renders a report as its canonical committed bytes.
func marshalArtifact(report any) []byte {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil
	}
	return append(b, '\n')
}

// loadArtifact reads a committed report back.
func loadArtifact[R any](path, what string) (*R, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r R
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("lint: bad %s %s: %w", what, path, err)
	}
	return &r, nil
}
