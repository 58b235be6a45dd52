// Command mmlint is the repository's domain linter: a multichecker that
// proves the simulator's ownership, determinism and no-alloc invariants
// at compile time.
//
// Two modes:
//
//	mmlint ./...                     standalone: load, check, print findings
//	go vet -vettool=$(pwd)/bin/mmlint ./...   vet driver protocol
//
// Analyzers: packetrelease (every produced *packet.Packet reaches Release
// or an ownership sink on all paths), detorder (no nondeterministic map
// iteration, wall clocks, global rand or bare goroutines), noalloc
// (//mmlint:noalloc functions stay allocation-free), simtimeonly (all
// timing flows through internal/simtime), deadapi (every exported
// internal/ function has a non-test use or a //mmlint:testref waiver).
//
// deadapi is a module analyzer: it runs only standalone over the whole
// module (`mmlint ./...`, what `make lint` runs), never under the vet
// driver, which hands the tool one package at a time. The separate bench/
// module is invisible to it.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/tools/mmlint/internal/analysis"
	"repro/tools/mmlint/internal/deadapi"
	"repro/tools/mmlint/internal/detorder"
	"repro/tools/mmlint/internal/noalloc"
	"repro/tools/mmlint/internal/packetrelease"
	"repro/tools/mmlint/internal/simtimeonly"
)

var analyzers = []*analysis.Analyzer{
	packetrelease.Analyzer,
	detorder.Analyzer,
	noalloc.Analyzer,
	simtimeonly.Analyzer,
	deadapi.Analyzer,
}

func main() {
	args := os.Args[1:]

	// go vet handshake: it runs `mmlint -V=full` once to derive a cache
	// key, then re-invokes the tool with a single *.cfg argument per
	// package. The version line hashes the executable so edits to the
	// linter invalidate vet's result cache.
	if len(args) == 1 && args[0] == "-V=full" {
		fmt.Printf("mmlint version devel buildID=%s\n", selfHash())
		return
	}
	// cmd/go also probes `mmlint -flags` for tool-specific flags (JSON).
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Println("[]")
		return
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		analysis.RunUnit(args[0], analyzers)
		return
	}

	fs := flag.NewFlagSet("mmlint", flag.ExitOnError)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: mmlint [packages]\n\nAnalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	_ = fs.Parse(args)
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	run := analyzers
	if len(patterns) != 1 || patterns[0] != "./..." {
		// A module analyzer judges uses across the whole module; over a
		// narrower load it would report every API used elsewhere.
		run = nil
		for _, a := range analyzers {
			if a.RunModule == nil {
				run = append(run, a)
			} else {
				fmt.Fprintf(os.Stderr, "mmlint: %s skipped: it runs only over ./...\n", a.Name)
			}
		}
	}

	pkgs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmlint: %v\n", err)
		os.Exit(1)
	}
	diags, err := analysis.RunAnalyzers(pkgs, run)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mmlint: %v\n", err)
		os.Exit(1)
	}
	for _, d := range diags {
		fmt.Printf("%s: [%s] %s\n", position(pkgs, d), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(1)
	}
}

func position(pkgs []*analysis.Package, d analysis.Diagnostic) string {
	for _, p := range pkgs {
		if f := p.Fset.File(d.Pos); f != nil {
			return p.Fset.Position(d.Pos).String()
		}
	}
	return "-"
}

func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x", sum[:12])
}
