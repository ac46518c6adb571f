// Command reachcheck, run from the module root, fails on each function
// declared outside the main packages that no program links (every main
// package and the bench module, built without inlining so an inlined callee
// keeps its symbol) and no allow.txt line keeps. A line is `pattern reason
// [note]`: an import path or pkg.Func / pkg.Type.Method, then an E<n>
// (EXPERIMENTS.md row) or §<n> (paper section). A line without such a reason,
// or matching no unlinked function, fails too.
package main

import (
	"errors"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

const self = "scripts/reachcheck"

func main() {
	problems, err := run(".")
	if err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		fmt.Printf("%s\nreachcheck: %d problem(s): delete the function, move it into a _test.go file, or allowlist it with its E<n> or §<n>\n",
			strings.Join(problems, "\n"), len(problems))
		os.Exit(1)
	}
}

// run checks the module rooted at root and returns one line per problem.
func run(root string) ([]string, error) {
	pkgs, err := goCmd(root, "list", "-f", "{{.Name}}\t{{.Module.Path}}\t{{.ImportPath}}\t{{.Dir}}\t{{if ne .Name \"main\"}}{{join .GoFiles \" \"}}{{end}}", "./...")
	data, err2 := os.ReadFile(filepath.Join(root, self, "allow.txt"))
	bin, err3 := os.MkdirTemp("", "reachcheck")
	defer os.RemoveAll(bin)
	if err = errors.Join(err, err2, err3); err != nil {
		return nil, err
	}
	abs, _ := filepath.Abs(root)
	mod, mains := "", []string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}
	decls := map[string]string{} // symbol → file:line
	fset := token.NewFileSet()
	for _, line := range strings.Split(strings.TrimSuffix(pkgs, "\n"), "\n") {
		f := strings.SplitN(line, "\t", 5)
		if mod = f[1]; f[0] == "main" && f[2] != mod+"/"+self {
			mains = append(mains, f[2])
		}
		for _, name := range strings.Fields(f[4]) {
			file, _ := parser.ParseFile(fset, filepath.Join(f[3], name), nil, parser.SkipObjectResolution) // a syntax error fails the build below
			rel, _ := filepath.Rel(abs, filepath.Join(f[3], name))
			for _, d := range file.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
					sym := fd.Name.Name
					if fd.Recv != nil {
						sym = strings.TrimLeft(normalize(types.ExprString(fd.Recv.List[0].Type)), "*") + "." + sym
					}
					decls[f[2]+"."+sym] = fmt.Sprintf("%s:%d", rel, fset.Position(fd.Pos()).Line)
				}
			}
		}
	}
	builds := [][]string{mains}
	if _, err := os.Stat(filepath.Join(root, "bench", "go.mod")); err == nil {
		builds = append(builds, []string{"build", "-C", "bench", "-gcflags=all=-l", "-o", filepath.Join(bin, "bench"), "."})
	}
	for _, b := range builds {
		if _, err := goCmd(root, b...); err != nil {
			return nil, err
		}
	}
	linked, textSym := map[string]bool{}, regexp.MustCompile(`(?m)^ *[0-9a-f]+ [Tt] (`+regexp.QuoteMeta(mod)+`[./].*)$`)
	files, _ := os.ReadDir(bin)
	for _, e := range files {
		out, err := goCmd(root, "tool", "nm", filepath.Join(bin, e.Name()))
		if err != nil {
			return nil, err
		}
		for _, m := range textSym.FindAllStringSubmatch(out, -1) {
			linked[normalize(m[1])] = true
		}
	}
	var problems []string
	allow, used := map[int]string{}, map[int]bool{} // keyed by allowlist line number
	for i, line := range strings.Split(string(data), "\n") {
		if w := strings.Fields(line); len(w) > 0 && !strings.HasPrefix(w[0], "#") {
			if len(w) < 2 || !reasonRE.MatchString(w[1]) {
				problems = append(problems, fmt.Sprintf("%s/allow.txt:%d has no E<n> or §<n> reason: %s", self, i+1, line))
			} else {
				allow[i+1] = normalize(w[0])
			}
		}
	}
	for sym, pos := range decls {
		matched := linked[sym]
		for n, pat := range allow {
			if !linked[sym] && (sym == pat || strings.HasPrefix(sym, pat+".")) {
				used[n], matched = true, true
			}
		}
		if !matched {
			problems = append(problems, pos+" "+sym)
		}
	}
	for n, pat := range allow {
		if !used[n] {
			problems = append(problems, fmt.Sprintf("%s/allow.txt:%d stale: %s matches no unlinked function", self, n, pat))
		}
	}
	sort.Strings(problems)
	return problems, nil
}

var (
	bracketRE = regexp.MustCompile(`\[[^][]*\]`)
	closureRE = regexp.MustCompile(`\.(func|deferwrap|gowrap)[0-9].*$`)
	initRE    = regexp.MustCompile(`\.init\.[0-9]+$`)
	reasonRE  = regexp.MustCompile(`^(E[0-9]+|§[0-9]+(\.[0-9]+)*)$`)
)

// normalize maps a linked symbol onto its declaration: it strips type
// arguments (balanced brackets, which may hold spaces and braces), closure
// and defer/go wrapper suffixes and pointer-receiver parentheses, and maps a
// numbered init onto init.
func normalize(sym string) string {
	for prev := ""; prev != sym; {
		prev, sym = sym, bracketRE.ReplaceAllString(sym, "")
	}
	sym = initRE.ReplaceAllString(closureRE.ReplaceAllString(sym, ""), ".init")
	return strings.NewReplacer("(*", "", ")", "").Replace(sym)
}

// goCmd runs the go command in dir and returns its standard output.
func goCmd(dir string, args ...string) (string, error) {
	cmd := exec.Command("go", args...)
	cmd.Dir, cmd.Stderr = dir, os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return "", fmt.Errorf("go %s: %w", strings.Join(args, " "), err)
	}
	return string(out), nil
}
