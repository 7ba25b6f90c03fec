// Command rpblint is the suite's source-level fear checker. Run plain,
// it re-derives the pattern census from source, cross-checks it against
// the DeclareSite registry, audits scared-construct containment and
// flags workers escaping into raw goroutines. Run with a pass flag, it
// certifies: offset provenance, parallel-body writes, arena-checkout
// lifetimes. See docs/LINT.md.
//
// Usage:
//
//	rpblint [-root dir] [-json] [-census] [-v] [packages...]
//	rpblint [-root dir] [-json] -certify|-races|-lifetimes... [-write]
//
// Packages are directory patterns relative to the module root
// ("./...", "./internal/bench", "examples/..."); with none given the
// whole module is checked. They restrict which directories the plain
// run reports on. A certification pass takes none: its artifact
// describes the whole module, so it always analyses the whole module.
//
// The three certification passes share one artifact discipline:
// -certify proves offset provenance (lint-certs.json), -races proves
// parallel-write exclusivity (lint-races.json), -lifetimes proves
// arena-checkout confinement (lint-lifetimes.json); each artifact lives
// at the module root. Each renders its report, then either rewrites its
// committed artifact (-write) or byte-compares against it and fails
// when stale; an unexplained refusal (no //lint:scared marker) anywhere
// in the module fails regardless of staleness. The pass flags combine: every requested pass
// runs, in the order above, over one parsed and type-checked module,
// and the exit status is the worst of them. Exit status: 0 clean, 1
// diagnostics / stale or unexplained certificates, 2 usage or analysis
// error.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/lint"
)

func main() {
	var (
		root    = flag.String("root", "", "module root (default: walk up from cwd to go.mod)")
		asJSON  = flag.Bool("json", false, "emit the full report as JSON")
		census  = flag.Bool("census", false, "print the static pattern census")
		verbose = flag.Bool("v", false, "print the per-package scared-construct table")

		certify   = flag.Bool("certify", false, "run the offset-provenance certification pass")
		races     = flag.Bool("races", false, "run the parallel-write certification pass")
		lifetimes = flag.Bool("lifetimes", false, "run the arena lifetime certification pass")

		write = flag.Bool("write", false, "rewrite the artifact of each requested pass instead of comparing")
	)
	flag.Parse()

	r := *root
	if r == "" {
		var err error
		r, err = findRoot()
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
	}

	// The certification passes share one parsed module and one artifact
	// code path; each contributes only its report and refusal count.
	if *certify || *races || *lifetimes {
		if flag.NArg() > 0 {
			fmt.Fprintln(os.Stderr, "rpblint: -certify, -races and -lifetimes analyse the whole module and take no packages\nusage: rpblint -certify|-races|-lifetimes [-write] [-root dir]")
			os.Exit(2)
		}
		certs, rr, lr, err := lint.RunPasses(lint.Config{Root: r}, *certify, *races, *lifetimes)
		if err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
		status := 0
		if certs != nil {
			status = max(status, finishPass(r, "lint-certs.json", *write, *asJSON, "-certify",
				passOut{artifact: certs.Marshal(), text: certs.String()}))
		}
		if rr != nil {
			status = max(status, finishPass(r, "lint-races.json", *write, *asJSON, "-races",
				passOut{artifact: rr.Marshal(), text: rr.String(), unexplained: rr.Unexplained}))
		}
		if lr != nil {
			status = max(status, finishPass(r, "lint-lifetimes.json", *write, *asJSON, "-lifetimes",
				passOut{artifact: lr.Marshal(), text: lr.String(), unexplained: lr.Unexplained}))
		}
		os.Exit(status)
	}

	rep, err := lint.Run(lint.Config{Root: r, Dirs: flag.Args()})
	if err != nil {
		fmt.Fprintln(os.Stderr, "rpblint:", err)
		os.Exit(2)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			os.Exit(2)
		}
	} else {
		if *census {
			fmt.Print(rep.Census.String())
		}
		if *verbose {
			fmt.Printf("%-22s %-10s %5s %9s %7s %5s %4s %7s %7s\n",
				"package", "role", "files", "unchecked", "atomics", "sync", "go", "helpers", "engines")
			for _, p := range rep.Packages {
				fmt.Printf("%-22s %-10s %5d %9d %7d %5d %4d %7d %7d\n",
					p.Path, p.Role, p.Files, p.Unchecked, p.Atomics, p.SyncDecls, p.GoStmts, p.AWHelpers, p.Engines)
			}
		}
		for _, d := range rep.Diags {
			fmt.Println(d)
		}
		if len(rep.Diags) == 0 && !*census && !*verbose {
			fmt.Printf("rpblint: clean — %d census sites (%d irregular), %d packages\n",
				rep.Census.Total, rep.Census.Irregular, len(rep.Packages))
		}
	}
	if len(rep.Diags) > 0 {
		os.Exit(1)
	}
}

// passOut is what one certification pass hands the shared plumbing.
type passOut struct {
	artifact    []byte // canonical committed-file bytes
	text        string // human rendering
	unexplained int    // refusals no //lint:scared marker audits
}

// finishPass applies the shared artifact discipline to one pass's
// output: print the report, then rewrite the committed file
// <root>/<file> (write=true) or byte-compare against it. It returns the
// pass's exit status: 1 when the file is stale or missing, or —
// regardless of staleness — when unexplained refusals remain; 2 when
// the file cannot be written.
func finishPass(root, file string, write, asJSON bool, passFlag string, out passOut) int {
	if asJSON {
		os.Stdout.Write(out.artifact)
	} else {
		fmt.Print(out.text)
	}

	status := 0
	if out.unexplained > 0 {
		fmt.Fprintf(os.Stderr, "rpblint: %d unexplained refusals (add //lint:scared markers or fix the sites)\n", out.unexplained)
		status = 1
	}

	path := filepath.Join(root, file)
	if write {
		if err := os.WriteFile(path, out.artifact, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "rpblint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "rpblint: wrote %s\n", path)
		return status
	}
	committed, err := os.ReadFile(path)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "rpblint: no committed certificate file %s (run rpblint %s -write)\n", path, passFlag)
		return 1
	case !bytes.Equal(committed, out.artifact):
		fmt.Fprintf(os.Stderr, "rpblint: %s is stale (run rpblint %s -write and commit the result)\n", path, passFlag)
		return 1
	case status == 0:
		fmt.Fprintf(os.Stderr, "rpblint: %s is current\n", path)
	}
	return status
}

// findRoot walks up from the working directory to the nearest go.mod.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}
