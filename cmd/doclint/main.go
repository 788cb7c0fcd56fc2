// Doclint is the repository's documentation checker, run by `make
// docs-check` and CI. It has two modes:
//
//	doclint docs <dir>...   lint Go doc comments: every exported
//	                        top-level declaration in the given package
//	                        directories must carry a doc comment, and
//	                        every package must have a package comment.
//	doclint links <file>... check markdown files: every relative link
//	                        and image target must exist on disk
//	                        (anchors and external URLs are skipped).
//	doclint xref <dir>...   check Go doc-comment cross-references:
//	                        every [Ident] and [pkg.Ident] doc link in
//	                        the given package directories must resolve
//	                        to an exported declaration (references to
//	                        packages outside the given set are skipped).
//	doclint tests <file>... check markdown files: every Test…,
//	                        Benchmark… or Fuzz… name they cite must be
//	                        declared in some _test.go file under the
//	                        working directory (a trailing * matches as a
//	                        prefix; a /subtest suffix is ignored).
//
// It uses only the standard library, prints one "file:line: message"
// finding per problem, and exits 1 when any finding was printed.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

func main() {
	if len(os.Args) < 3 {
		fmt.Fprintln(os.Stderr, "usage: doclint docs|xref <dir>... | doclint links|tests <file>...")
		os.Exit(2)
	}
	var findings int
	switch os.Args[1] {
	case "docs":
		for _, dir := range os.Args[2:] {
			findings += lintDocs(dir)
		}
	case "links":
		for _, file := range os.Args[2:] {
			findings += lintLinks(file)
		}
	case "xref":
		findings += lintXrefs(os.Args[2:])
	case "tests":
		findings += lintTestRefs(os.Args[2:])
	default:
		fmt.Fprintf(os.Stderr, "doclint: unknown mode %q\n", os.Args[1])
		os.Exit(2)
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d finding(s)\n", findings)
		os.Exit(1)
	}
}

// lintDocs parses one package directory (tests excluded) and reports
// exported declarations without doc comments.
func lintDocs(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	findings := 0
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		fmt.Printf("%s:%d: %s\n", p.Filename, p.Line, fmt.Sprintf(format, args...))
		findings++
	}
	for _, pkg := range pkgs {
		hasPkgDoc := false
		for _, f := range pkg.Files {
			if f.Doc != nil {
				hasPkgDoc = true
			}
		}
		if !hasPkgDoc {
			// Anchor the finding on any file of the package.
			for name := range pkg.Files {
				fmt.Printf("%s:1: package %s has no package comment\n", name, pkg.Name)
				findings++
				break
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || unexportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "exported %s %s has no doc comment", declKind(d), d.Name.Name)
					}
				case *ast.GenDecl:
					lintGenDecl(report, d)
				}
			}
		}
	}
	return findings
}

// unexportedRecv reports a method on an unexported receiver type: its
// docs are internal style, not API surface.
func unexportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return false
	}
	name := recvTypeName(d.Recv.List[0].Type)
	return name != "" && !ast.IsExported(name)
}

func declKind(d *ast.FuncDecl) string {
	if d.Recv != nil {
		return "method"
	}
	return "function"
}

// lintGenDecl handles const/var/type groups: the group doc covers its
// members, so a finding fires only when neither the group nor the spec
// carries a comment. Import groups hold neither spec kind.
func lintGenDecl(report func(token.Pos, string, ...any), d *ast.GenDecl) {
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
				report(s.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
					report(s.Pos(), "exported %s %s has no doc comment", d.Tok, name.Name)
				}
			}
		}
	}
}

// xrefPattern matches Go doc-link references in doc comments:
// [Ident], [pkg.Ident], and [pkg.Type.Method] — an optional lowercase
// package qualifier followed by an exported identifier path. Bracketed
// text that is not an identifier path (regexp classes, half-open
// intervals, citations with spaces) does not match.
var xrefPattern = regexp.MustCompile(`\[(?:([a-z][a-zA-Z0-9]*)\.)?([A-Z][A-Za-z0-9]*(?:\.[A-Z][A-Za-z0-9]*)*)\]`)

// lintXrefs parses every package directory, collects the exported
// top-level declarations per package name, then re-scans all doc
// comments for doc links and reports references that do not resolve.
// Links qualified with a package name outside the parsed set (stdlib,
// third-party) are skipped — the checker only owns this repo's surface.
func lintXrefs(dirs []string) int {
	fset := token.NewFileSet()
	type pkgFiles struct {
		name  string
		files []*ast.File
	}
	var parsed []pkgFiles
	decls := make(map[string]map[string]bool) // package name → exported decl set
	findings := 0
	for _, dir := range dirs {
		pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			findings++
			continue
		}
		for _, pkg := range pkgs {
			if strings.HasSuffix(pkg.Name, "_test") || pkg.Name == "main" {
				// Binaries export nothing referenceable.
				continue
			}
			set := decls[pkg.Name]
			if set == nil {
				set = make(map[string]bool)
				decls[pkg.Name] = set
			}
			pf := pkgFiles{name: pkg.Name}
			for _, f := range pkg.Files {
				pf.files = append(pf.files, f)
				collectDecls(set, f)
			}
			parsed = append(parsed, pf)
		}
	}
	for _, pf := range parsed {
		for _, f := range pf.files {
			for _, cg := range f.Comments {
				findings += checkXrefs(fset, cg, pf.name, decls)
			}
		}
	}
	return findings
}

// collectDecls records every exported top-level identifier of one file:
// functions, methods (as Type.Method), types, consts, and vars.
func collectDecls(set map[string]bool, f *ast.File) {
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv != nil && len(d.Recv.List) > 0 {
				if recv := recvTypeName(d.Recv.List[0].Type); recv != "" {
					set[recv+"."+d.Name.Name] = true
				}
				continue
			}
			set[d.Name.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						set[s.Name.Name] = true
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() {
							set[name.Name] = true
						}
					}
				}
			}
		}
	}
}

// recvTypeName unwraps a method receiver type down to its identifier.
func recvTypeName(t ast.Expr) string {
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.Name
		default:
			return ""
		}
	}
}

// checkXrefs validates every doc link in one comment group against the
// declaration sets: unqualified links resolve in the comment's own
// package, qualified links in the named package when it was parsed.
func checkXrefs(fset *token.FileSet, cg *ast.CommentGroup, selfPkg string, decls map[string]map[string]bool) int {
	findings := 0
	for _, c := range cg.List {
		for _, m := range xrefPattern.FindAllStringSubmatch(c.Text, -1) {
			pkg, ident := m[1], m[2]
			if pkg == "" {
				pkg = selfPkg
			}
			set, known := decls[pkg]
			if !known {
				continue
			}
			// A method link also resolves if its type exists: fields and
			// promoted methods are legitimate prose targets.
			if set[ident] {
				continue
			}
			if dot := strings.IndexByte(ident, '.'); dot >= 0 && set[ident[:dot]] {
				continue
			}
			p := fset.Position(c.Pos())
			fmt.Printf("%s:%d: broken doc link [%s.%s]\n", p.Filename, p.Line, pkg, m[2])
			findings++
		}
	}
	return findings
}

// linkPattern matches inline markdown links and images: [text](target)
// and ![alt](target). Reference-style links are rare in this repo and
// are not checked.
var linkPattern = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)(?:\s+"[^"]*")?\)`)

// lintLinks checks every relative link target in one markdown file.
func lintLinks(file string) int {
	b, err := os.ReadFile(file)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	findings := 0
	dir := filepath.Dir(file)
	inFence := false
	for i, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if inFence {
			continue
		}
		for _, m := range linkPattern.FindAllStringSubmatch(line, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"),
				strings.HasPrefix(target, "#"):
				continue
			}
			// Strip an in-file anchor from a relative path.
			if idx := strings.IndexByte(target, '#'); idx >= 0 {
				target = target[:idx]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.Join(dir, target)); err != nil {
				fmt.Printf("%s:%d: broken link %q\n", file, i+1, m[1])
				findings++
			}
		}
	}
	return findings
}

// testRefPattern matches a Test, Benchmark or Fuzz function name cited
// in prose. A trailing * makes it a prefix; a /subtest suffix is not
// part of the match.
var testRefPattern = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*\*?`)

// testDeclPattern matches a Test, Benchmark or Fuzz function declaration.
var testDeclPattern = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)

// lintTestRefs checks that every test name the markdown files cite is
// declared in some _test.go file below the working directory. Hidden
// directories are skipped: they hold build caches and other checkouts,
// whose tests would vouch for names this tree no longer declares.
func lintTestRefs(files []string) int {
	var declared []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		for _, m := range testDeclPattern.FindAllSubmatch(b, -1) {
			declared = append(declared, string(m[1]))
		}
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
		return 1
	}
	findings := 0
	for _, file := range files {
		b, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doclint: %v\n", err)
			findings++
			continue
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, ref := range testRefPattern.FindAllString(line, -1) {
				name, prefix := strings.CutSuffix(ref, "*")
				if !slices.ContainsFunc(declared, func(d string) bool {
					return d == name || prefix && strings.HasPrefix(d, name)
				}) {
					fmt.Printf("%s:%d: %s is not declared in any _test.go\n", file, i+1, ref)
					findings++
				}
			}
		}
	}
	return findings
}
