// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that mmlint's checkers program
// against. The container this repo builds in has no module proxy access,
// so the framework is grown from the standard library instead: go/parser
// and go/types provide syntax and type information, and `go list -export`
// provides export data for imports (see load.go). Analyzers see the same
// (Files, Pkg, Info, Report) world an x/tools analyzer would, which keeps
// a later migration to the real framework mechanical.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. Run inspects a single type-checked package
// and reports findings through the Pass. A module analyzer sets RunModule
// instead: it sees every loaded package at once, so only the standalone
// driver can run it (the vet driver hands the tool one package at a time).
type Analyzer struct {
	Name      string // short lower-case identifier, e.g. "packetrelease"
	Doc       string // one-paragraph description shown by -help
	Run       func(*Pass) error
	RunModule func(*ModulePass) error
}

// Diagnostic is one finding, anchored to a source position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Pos
	Message  string
}

// Pass carries one package's worth of context to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	report func(Diagnostic)
	dirs   *directiveIndex
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// ModulePass carries every loaded package to a module analyzer.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	report func(Diagnostic)
}

// Reportf records a finding at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Analyzer: p.Analyzer.Name, Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Directive returns the argument text of an `//mmlint:<name>` comment
// attached to the line of pos or the line immediately above it, and
// whether such a comment exists. The argument is the trimmed remainder of
// the comment ("" for a bare directive).
func (p *Pass) Directive(pos token.Pos, name string) (string, bool) {
	if p.dirs == nil {
		p.dirs = indexDirectives(p.Fset, p.Files)
	}
	position := p.Fset.Position(pos)
	for _, line := range []int{position.Line, position.Line - 1} {
		if arg, ok := p.dirs.at(position.Filename, line, name); ok {
			return arg, true
		}
	}
	return "", false
}

// DocDirective reports whether the doc comment group carries an
// `//mmlint:<name>` directive, returning its argument text.
func DocDirective(doc *ast.CommentGroup, name string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		if arg, ok := parseDirective(c.Text, name); ok {
			return arg, true
		}
	}
	return "", false
}

// directiveIndex maps (file, line) to the mmlint directives on that line.
type directiveIndex struct {
	// byLine maps filename -> line -> "name\x00arg" entries.
	byLine map[string]map[int][]string
}

func (d *directiveIndex) at(file string, line int, name string) (string, bool) {
	for _, entry := range d.byLine[file][line] {
		n, arg, _ := strings.Cut(entry, "\x00")
		if n == name {
			return arg, true
		}
	}
	return "", false
}

func indexDirectives(fset *token.FileSet, files []*ast.File) *directiveIndex {
	idx := &directiveIndex{byLine: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				name, arg, ok := splitDirective(c.Text)
				if !ok {
					continue
				}
				pos := fset.Position(c.Pos())
				m := idx.byLine[pos.Filename]
				if m == nil {
					m = make(map[int][]string)
					idx.byLine[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], name+"\x00"+arg)
			}
		}
	}
	return idx
}

// splitDirective parses "//mmlint:name arg..." comment text.
func splitDirective(text string) (name, arg string, ok bool) {
	rest, found := strings.CutPrefix(text, "//mmlint:")
	if !found {
		return "", "", false
	}
	name, arg, _ = strings.Cut(rest, " ")
	return strings.TrimSpace(name), strings.TrimSpace(arg), name != ""
}

// parseDirective matches one comment line against a directive name.
func parseDirective(text, want string) (string, bool) {
	name, arg, ok := splitDirective(text)
	if !ok || name != want {
		return "", false
	}
	return arg, true
}

// RunAnalyzers applies every package analyzer to every package, and every
// module analyzer once to all of them, and returns the findings sorted by
// position then analyzer then message.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	report := func(d Diagnostic) { diags = append(diags, d) }
	for _, a := range analyzers {
		if a.RunModule == nil {
			continue
		}
		if err := a.RunModule(&ModulePass{Analyzer: a, Pkgs: pkgs, report: report}); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
			}
			pass.report = report
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
			}
		}
	}
	SortDiagnostics(pkgs, diags)
	return diags, nil
}

// SortDiagnostics orders findings by file position, analyzer and message,
// resolving positions through each package's FileSet.
func SortDiagnostics(pkgs []*Package, diags []Diagnostic) {
	posn := func(d Diagnostic) token.Position {
		for _, p := range pkgs {
			if f := p.Fset.File(d.Pos); f != nil {
				return p.Fset.Position(d.Pos)
			}
		}
		return token.Position{}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := posn(diags[i]), posn(diags[j])
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
}
