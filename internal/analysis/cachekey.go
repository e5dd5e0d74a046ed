package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// CacheKeyConfig parameterizes the cachekey analyzer so analysistest fixtures
// can exercise it against miniature core/qcache packages.
type CacheKeyConfig struct {
	// OptionsPkgSuffix matches the import path of the package defining the
	// search options struct ("internal/core"; a bare "core" fixture matches
	// too because matching is by path suffix).
	OptionsPkgSuffix string
	// OptionsType is the options struct's type name.
	OptionsType string
	// KeyFuncPkgName and KeyFunc name the cache-key normalizer: the function
	// whose body must consume every result-affecting options field.
	KeyFuncPkgName string
	KeyFunc        string
	// Exempt lists options fields that provably do not change which hits a
	// completed stream contains, with the justification recorded next to the
	// exemption.  Every other field missing from the key is a finding.
	Exempt map[string]string
}

// DefaultCacheKeyConfig is the repository's real wiring: qcache.NewKey must
// consume every result-affecting field of core.Options.
func DefaultCacheKeyConfig() CacheKeyConfig {
	return CacheKeyConfig{
		OptionsPkgSuffix: "internal/core",
		OptionsType:      "Options",
		KeyFuncPkgName:   "qcache",
		KeyFunc:          "NewKey",
		Exempt: map[string]string{
			"MaxResults":      "entries remember Complete vs truncated; any top-k request is served by truncating the stored stream",
			"Stats":           "output-only work counters; never change which hits are produced",
			"Scratch":         "reusable buffers; results are identical with or without one",
			"Context":         "cancellation handle; a cancelled search is never cached",
			"StrictShards":    "degraded streams are never cached, and strict mode only turns degradation into an error",
			"ReferenceKernel": "ignored: the search has one kernel",
		},
	}
}

// NewCacheKey builds the cachekey analyzer: it diffs the fields of the
// options struct against the fields the cache-key normalizer consumes and
// fails on any non-exempt field missing from the key.  A missed field means
// two searches with different options can share one cache entry — silently
// wrong cached answers, a bug class a hand-maintained key once missed.
func NewCacheKey(cfg CacheKeyConfig) *Analyzer {
	a := &Analyzer{
		Name: "cachekey",
		Doc:  "every result-affecting options field must be consumed by the cache-key normalizer",
	}
	a.Run = func(pass *Pass) error {
		if pass.Pkg.Name() != cfg.KeyFuncPkgName {
			return nil
		}
		var keyFn *ast.FuncDecl
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.Name == cfg.KeyFunc {
					keyFn = fn
				}
			}
		}
		if keyFn == nil {
			return fmt.Errorf("package %s has no %s function to check", pass.Pkg.Path(), cfg.KeyFunc)
		}

		optStruct, optNamed := findOptionsType(pass.Pkg, cfg)
		if optStruct == nil {
			return fmt.Errorf("%s: no imported package matching %q defines type %s",
				pass.Pkg.Path(), cfg.OptionsPkgSuffix, cfg.OptionsType)
		}

		// Fields of the options struct the key function's body reads.
		used := map[string]bool{}
		ast.Inspect(keyFn.Body, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			s := pass.Info.Selections[sel]
			if s == nil || s.Kind() != types.FieldVal {
				return true
			}
			if v, ok := s.Obj().(*types.Var); ok && fieldOf(v, optNamed) {
				used[v.Name()] = true
			}
			return true
		})

		for i := 0; i < optStruct.NumFields(); i++ {
			f := optStruct.Field(i)
			if used[f.Name()] {
				continue
			}
			if _, ok := cfg.Exempt[f.Name()]; ok {
				continue
			}
			pass.Reportf(keyFn.Pos(),
				"%s.%s.%s is not consumed by %s and not allowlisted: two searches differing only in it would share a cache entry",
				optNamed.Obj().Pkg().Name(), cfg.OptionsType, f.Name(), cfg.KeyFunc)
		}
		// Exemptions that no longer name a real field have rotted.
		for name := range cfg.Exempt {
			if fieldByName(optStruct, name) == nil {
				pass.Reportf(keyFn.Pos(), "exempt field %s.%s no longer exists", cfg.OptionsType, name)
			}
		}
		return nil
	}
	return a
}

// findOptionsType locates the options struct among the key package's imports.
func findOptionsType(pkg *types.Package, cfg CacheKeyConfig) (*types.Struct, *types.Named) {
	for _, imp := range pkg.Imports() {
		if imp.Path() != cfg.OptionsPkgSuffix && !strings.HasSuffix(imp.Path(), "/"+cfg.OptionsPkgSuffix) {
			continue
		}
		obj := imp.Scope().Lookup(cfg.OptionsType)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			return st, named
		}
	}
	return nil, nil
}

// fieldOf reports whether v is a field of the named struct type.
func fieldOf(v *types.Var, named *types.Named) bool {
	st, ok := named.Underlying().(*types.Struct)
	if !ok {
		return false
	}
	return fieldByName(st, v.Name()) == v
}

func fieldByName(st *types.Struct, name string) *types.Var {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Name() == name {
			return st.Field(i)
		}
	}
	return nil
}
