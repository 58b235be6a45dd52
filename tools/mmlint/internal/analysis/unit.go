package analysis

import (
	"encoding/json"
	"fmt"
	"go/importer"
	"go/token"
	"io"
	"os"
	"strings"
)

// vetConfig mirrors the JSON configuration file `go vet -vettool` hands to
// an analysis tool (one file per package, argument ends in ".cfg"). Field
// names follow cmd/go's vetConfig / x/tools unitchecker.Config.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// RunUnit executes the analyzers under the go vet driver protocol: read
// the package config, type-check from the provided file lists with
// imports resolved through the compiler's export data, print findings to
// stderr, and exit non-zero when any finding exists. Module analyzers
// need the whole module and are skipped here. mmlint keeps no
// cross-package facts, so the vetx output is always an empty placeholder
// (vet requires the file to exist for caching).
func RunUnit(cfgPath string, analyzers []*Analyzer) {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fatalf("mmlint: %v", err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fatalf("mmlint: parsing %s: %v", cfgPath, err)
	}
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte("mmlint-no-facts\n"), 0o666); err != nil {
			fatalf("mmlint: %v", err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}
	// vet also routes test packages and test-augmented package variants
	// through the tool (same ID and ImportPath as the base package, test
	// files appended to GoFiles). mmlint guards production invariants
	// only — test code may use wall clocks, goroutines and ad-hoc packet
	// handling — so test files are dropped, matching the standalone
	// loader's policy. External test packages become empty and are
	// skipped outright.
	goFiles := cfg.GoFiles[:0:0]
	for _, f := range cfg.GoFiles {
		if !strings.HasSuffix(f, "_test.go") {
			goFiles = append(goFiles, f)
		}
	}
	cfg.GoFiles = goFiles
	if len(cfg.GoFiles) == 0 || strings.HasSuffix(cfg.ImportPath, ".test") {
		os.Exit(0)
	}

	fset := token.NewFileSet()
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := cfg.ImportMap[path]; ok {
			path = mapped
		}
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	imp := importer.ForCompiler(fset, compiler, lookup)
	pkg, err := typecheck(fset, cfg.ImportPath, "", cfg.GoFiles, imp)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		fatalf("mmlint: %v", err)
	}
	// Skip the vendored std packages vet also feeds through the tool.
	if cfg.Standard[cfg.ImportPath] {
		os.Exit(0)
	}
	var perPkg []*Analyzer
	for _, a := range analyzers {
		if a.Run != nil {
			perPkg = append(perPkg, a)
		}
	}
	diags, err := RunAnalyzers([]*Package{pkg}, perPkg)
	if err != nil {
		fatalf("mmlint: %v", err)
	}
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s: [%s] %s\n", fset.Position(d.Pos), d.Analyzer, d.Message)
	}
	if len(diags) > 0 {
		os.Exit(2)
	}
	os.Exit(0)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
