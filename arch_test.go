package dragonfly

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// resultPackages are the packages whose arithmetic decides a Result. The
// fleet serves a point computed on any machine to every client under one
// content key, so their floating point must give the same bits on every
// GOARCH.
var resultPackages = []string{"internal/core", "internal/engine", "internal/traffic", "internal/rng", "internal/metrics"}

// archMath are the math functions with assembly on some GOARCH
// ($GOROOT/src/math: the arch* stubs, *_asm.go and the .s files) whose
// results IEEE 754 does not pin: an assembly version may differ from the
// portable Go one in the last bit. FMA is listed too: it rounds once where
// x*y + z rounds twice, so it changes results wherever it replaces the
// pair. The other functions with per-architecture assembly — Ceil, Floor,
// Trunc, Max, Min, Mod, Modf, Frexp, Ldexp, Remainder, and Sqrt, which the
// compiler lowers to the hardware instruction — are exact, so every
// architecture returns the same bits, and they stay allowed.
var archMath = map[string]bool{
	"Acos": true, "Acosh": true, "Asin": true, "Asinh": true, "Atan": true, "Atan2": true,
	"Atanh": true, "Cbrt": true, "Cos": true, "Cosh": true, "Erf": true, "Erfc": true,
	"Exp": true, "Exp2": true, "Expm1": true, "Hypot": true, "Log": true, "Log10": true,
	"Log1p": true, "Log2": true, "Pow": true, "Sin": true, "Sinh": true, "Tan": true,
	"Tanh": true, "FMA": true,
}

// TestResultMathIsPortable walks the non-test files of the result packages
// with go/parser and fails on any call of an archMath function, so a
// result that could differ between a 386, an amd64 and an arm64 worker
// cannot enter the engine unnoticed.
func TestResultMathIsPortable(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, dir := range resultPackages {
		paths, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range paths {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files++
			name := mathImportName(f)
			if name == "" {
				continue
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == name && archMath[sel.Sel.Name] {
						t.Errorf("%s: math.%s may round differently on another GOARCH", fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
				return true
			})
		}
	}
	if files == 0 {
		t.Fatal("no result package source found")
	}
}

// mathImportName returns the name f refers to package math by, or "" when
// f does not import it.
func mathImportName(f *ast.File) string {
	for _, imp := range f.Imports {
		if path, _ := strconv.Unquote(imp.Path.Value); path == "math" {
			if imp.Name != nil {
				return imp.Name.Name
			}
			return "math"
		}
	}
	return ""
}
