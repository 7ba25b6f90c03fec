package bench

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/seqgen"
	"repro/internal/suffix"
)

// The text trio — sa (suffix array), lrs (longest repeated substring),
// bw (Burrows–Wheeler decode) — all run on generated Zipfian text with
// planted repeats (the wiki-input substitute). These are the paper's
// Fig 5a benchmarks: their dominant SngInd scatters (rank assignment
// through the suffix permutation, decode through the walk permutation)
// switch between unchecked (unsafe analog) and checked
// (par_ind_iter_mut analog) with core.Mode.

// --- sa ---

type saInstance struct {
	text   []byte
	sa     []int32
	oracle []int32
}

func (s *saInstance) runLibrary(w *core.Worker) {
	s.sa = suffix.ArrayOpts(w, s.text, core.GetMode() == core.ModeChecked)
}

func (s *saInstance) runDirect(nThreads int) {
	s.sa = directSuffixArray(nThreads, s.text)
}

func (s *saInstance) verify() error {
	if len(s.sa) != len(s.oracle) {
		return fmt.Errorf("sa: length %d, want %d", len(s.sa), len(s.oracle))
	}
	for i := range s.sa {
		if s.sa[i] != s.oracle[i] {
			return fmt.Errorf("sa: sa[%d] = %d, want %d", i, s.sa[i], s.oracle[i])
		}
	}
	return nil
}

// --- lrs ---

type lrsInstance struct {
	text    []byte
	length  int32 // result: longest repeat length
	wantLen int32
}

func lrsKernelLibrary(w *core.Worker, text []byte, checked bool) int32 {
	sa := suffix.ArrayOpts(w, text, checked)
	lcp := suffix.LCP(text, sa)
	if len(lcp) == 0 {
		return 0
	}
	best := core.MaxIndex(w, lcp)
	return lcp[best]
}

func (l *lrsInstance) runLibrary(w *core.Worker) {
	l.length = lrsKernelLibrary(w, l.text, core.GetMode() == core.ModeChecked)
}

func (l *lrsInstance) runDirect(nThreads int) {
	sa := directSuffixArray(nThreads, l.text)
	lcp := suffix.LCP(l.text, sa)
	if len(lcp) == 0 {
		l.length = 0
		return
	}
	best := directReduce(nThreads, len(lcp), 0, func(i int) int64 {
		return int64(i)
	}, func(a, b int64) int64 {
		if lcp[b] > lcp[a] || (lcp[b] == lcp[a] && b < a) {
			return b
		}
		return a
	})
	l.length = lcp[best]
}

func (l *lrsInstance) verify() error {
	if l.length != l.wantLen {
		return fmt.Errorf("lrs: length %d, want %d", l.length, l.wantLen)
	}
	return nil
}

// --- bw ---

type bwInstance struct {
	bwt  []byte
	out  []byte
	want []byte
}

func (b *bwInstance) runLibrary(w *core.Worker) {
	b.out = suffix.BWTDecodeOpts(w, b.bwt, core.GetMode() == core.ModeChecked)
}

func (b *bwInstance) runDirect(nThreads int) {
	b.out = directBWTDecode(nThreads, b.bwt)
}

func (b *bwInstance) verify() error {
	if !bytes.Equal(b.out, b.want) {
		return fmt.Errorf("bw: decode does not round-trip (%d vs %d bytes)", len(b.out), len(b.want))
	}
	return nil
}

func init() {
	// The Fig 3 census declares one site per shared-array access in each
	// parallel region (the paper's static counting method, Sec 7.2).
	declareSuffixArraySites := func(b string) {
		core.DeclareSite(b, "init: text read", core.RO)
		core.DeclareSite(b, "init: sa identity write", core.Stride)
		core.DeclareSite(b, "init: packed-prefix key write", core.Stride)
		core.DeclareSite(b, "refine: group-start read", core.RO)
		core.DeclareSite(b, "refine: rank read at i+k", core.AW)
		core.DeclareSite(b, "refine: (group, rank) key write", core.Stride)
		core.DeclareSite(b, "radix: src key read", core.RO)
		core.DeclareSite(b, "radix: block count write", core.Block)
		core.DeclareSite(b, "radix: count scan", core.Block)
		core.DeclareSite(b, "radix: cursor scatter write", core.Stride)
		core.DeclareSite(b, "radix: pass recursion", core.DC)
		core.DeclareSite(b, "ranks: boundary flag write", core.Stride)
		core.DeclareSite(b, "ranks: flag max-scan", core.Block)
		core.DeclareSite(b, "ranks: group-start write", core.Stride)
		core.DeclareSite(b, "ranks: scatter rank[sa[j]]", core.SngInd)
	}
	declareSuffixArraySites("sa")

	declareSuffixArraySites("lrs")
	core.DeclareSite("lrs", "lcp read (argmax)", core.RO)

	core.DeclareSite("bw", "lf: bwt read (counts)", core.RO)
	core.DeclareSite("bw", "lf: block count write", core.Block)
	core.DeclareSite("bw", "lf: count scan", core.Block)
	core.DeclareSite("bw", "lf: bwt read (cursors)", core.RO)
	core.DeclareSite("bw", "lf: lf chunk write", core.Stride)
	core.DeclareSite("bw", "jump: lf read", core.RO)
	core.DeclareSite("bw", "jump: nxt/dst init write", core.Stride)
	core.DeclareSite("bw", "jump: successor chase read", core.AW)
	core.DeclareSite("bw", "jump: nxt double write", core.Stride)
	core.DeclareSite("bw", "jump: dst accumulate write", core.Stride)
	core.DeclareSite("bw", "jump: round recursion", core.DC)
	core.DeclareSite("bw", "decode: bwt read", core.RO)
	core.DeclareSite("bw", "decode: scatter buf[dst[i]]", core.SngInd)

	Register(Spec{
		Name:   "sa",
		Long:   "suffix array",
		Inputs: []string{"wiki"},
		Make: func(input string, scale Scale) *Instance {
			text := seqgen.Text(nil, TextSize(scale), 0x5a11)
			s := &saInstance{text: text, oracle: suffix.ArrayDC3(text)} // DC3: fast O(n) oracle
			return &Instance{
				RunLibrary: s.runLibrary,
				RunDirect:  s.runDirect,
				Verify:     s.verify,
			}
		},
	})

	Register(Spec{
		Name:   "lrs",
		Long:   "longest repeated substring",
		Inputs: []string{"wiki"},
		Make: func(input string, scale Scale) *Instance {
			text := seqgen.Text(nil, TextSize(scale), 0x165)
			l := &lrsInstance{text: text}
			// Oracle via the independent DC3 construction.
			sa := suffix.ArrayDC3(text)
			lcp := suffix.LCP(text, sa)
			if len(lcp) > 0 {
				l.wantLen = lcp[core.MaxIndex(nil, lcp)]
			}
			return &Instance{
				RunLibrary: l.runLibrary,
				RunDirect:  l.runDirect,
				Verify:     l.verify,
			}
		},
	})

	Register(Spec{
		Name:   "bw",
		Long:   "Burrows-Wheeler decode",
		Inputs: []string{"wiki"},
		Make: func(input string, scale Scale) *Instance {
			text := seqgen.Text(nil, TextSize(scale), 0xb3)
			b := &bwInstance{
				bwt:  suffix.BWTEncode(nil, text),
				want: text,
			}
			return &Instance{
				RunLibrary: b.runLibrary,
				RunDirect:  b.runDirect,
				Verify:     b.verify,
			}
		},
	})
}
