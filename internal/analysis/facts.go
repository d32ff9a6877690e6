package analysis

// Cross-package facts.
//
// PR 6's throughput work rests on contracts that span compilation units: the
// set of AST node types lives in sqlast, but the switches that must cover it
// live in minidb and elsewhere; the engine-owned Outcome buffers live in
// minidb, but the retention hazard lives in every caller. A single-package
// analyzer cannot see across that boundary, so the framework grows the same
// mechanism x/tools calls "facts": an analyzer running on a package may
// attach findings to that package's objects, and an analyzer running on a
// *downstream* package may query the facts of anything it imports.
//
// Facts flow in dependency order. In-process drivers (analysistest, the
// facts unit tests) analyze fixture dependencies before dependents and share
// one FactStore. Under the `go vet -vettool` protocol, facts are serialized
// into the .vetx file cmd/go asks each unit to write (see unitchecker),
// traveling alongside the gc export data exactly like the stock vet tool's
// facts do.
//
// Because a dependency is re-imported from export data in downstream units,
// object *identity* does not survive the package boundary. Facts are
// therefore keyed by a stable path — (package path, object path) — where the
// object path is one of:
//
//	"TypeName"            a package-level type, func, or var
//	"TypeName.Field"      a field of a package-level struct type
//	"TypeName.Method"     a method of a package-level type
//	""                    the package itself (package facts)
//
// This is a deliberately small subset of x/tools' objectpath, sufficient for
// every fact the legolint analyzers exchange.

import (
	"encoding/json"
	"fmt"
	"go/types"
	"reflect"
	"sort"
)

// Fact is a typed datum attached to an object or package by one analyzer.
// Implementations must be pointers to JSON-serializable structs and must be
// listed in their analyzer's FactTypes so downstream units can decode them.
type Fact interface {
	// AFact marks the type as a fact; it is never called.
	AFact()
}

// ObjectKey names one object (or package) across compilation units.
type ObjectKey struct {
	// Pkg is the import path of the package that owns the object.
	Pkg string
	// Object is the object path within the package; "" for package facts.
	Object string
}

// KeyedFact pairs a fact with the object it describes, for enumeration.
type KeyedFact struct {
	Key  ObjectKey
	Fact Fact
}

// factID keys the store: one fact per (analyzer, object, fact type).
type factID struct {
	analyzer string
	key      ObjectKey
	typeName string
}

// FactStore accumulates facts across the passes of one analysis run (all
// units in-process, or one unit plus everything decoded from its
// dependencies' vetx files).
type FactStore struct {
	facts map[factID]Fact
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{facts: map[factID]Fact{}}
}

func factTypeName(f Fact) string {
	t := reflect.TypeOf(f)
	if t.Kind() == reflect.Pointer {
		t = t.Elem()
	}
	return t.Name()
}

func (s *FactStore) put(analyzer string, key ObjectKey, f Fact) {
	s.facts[factID{analyzer, key, factTypeName(f)}] = f
}

// get copies the stored fact (if any) into dst, which must be a pointer to
// the same concrete type the producer exported.
func (s *FactStore) get(analyzer string, key ObjectKey, dst Fact) bool {
	f, ok := s.facts[factID{analyzer, key, factTypeName(dst)}]
	if !ok {
		return false
	}
	dv := reflect.ValueOf(dst)
	fv := reflect.ValueOf(f)
	if dv.Type() != fv.Type() || dv.Kind() != reflect.Pointer {
		return false
	}
	dv.Elem().Set(fv.Elem())
	return true
}

// objectFacts returns every fact the analyzer attached to objects of the
// package, sorted by object path for deterministic iteration.
func (s *FactStore) objectFacts(analyzer, pkgPath string) []KeyedFact {
	var out []KeyedFact
	for id, f := range s.facts {
		if id.analyzer == analyzer && id.key.Pkg == pkgPath && id.key.Object != "" {
			out = append(out, KeyedFact{Key: id.key, Fact: f})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key.Object < out[j].Key.Object })
	return out
}

// ---------------------------------------------------------------------------
// Serialization (the .vetx wire format)

type wireFact struct {
	Analyzer string          `json:"analyzer"`
	Pkg      string          `json:"pkg"`
	Object   string          `json:"object,omitempty"`
	Type     string          `json:"type"`
	Data     json.RawMessage `json:"data"`
}

type wireFacts struct {
	Version int        `json:"version"`
	Facts   []wireFact `json:"facts"`
}

// factsVersion stamps the wire format; a mismatch makes Decode fail loudly
// rather than silently dropping contract information.
const factsVersion = 1

// Encode serializes the whole store. The output is deterministic: facts are
// sorted by (analyzer, pkg, object, type). Every unit writes its complete
// store — imported facts included — so downstream units see transitive facts
// even when the driver only hands them direct dependencies' files.
func (s *FactStore) Encode() ([]byte, error) {
	wf := wireFacts{Version: factsVersion}
	for id, f := range s.facts {
		data, err := json.Marshal(f)
		if err != nil {
			return nil, fmt.Errorf("encoding fact %s for %s.%s: %w", id.typeName, id.key.Pkg, id.key.Object, err)
		}
		wf.Facts = append(wf.Facts, wireFact{
			Analyzer: id.analyzer,
			Pkg:      id.key.Pkg,
			Object:   id.key.Object,
			Type:     id.typeName,
			Data:     data,
		})
	}
	sort.Slice(wf.Facts, func(i, j int) bool {
		a, b := wf.Facts[i], wf.Facts[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pkg != b.Pkg {
			return a.Pkg < b.Pkg
		}
		if a.Object != b.Object {
			return a.Object < b.Object
		}
		return a.Type < b.Type
	})
	return json.Marshal(wf)
}

// Decode merges serialized facts into the store. Fact types are resolved
// through the analyzers' FactTypes declarations; facts from analyzers or
// types not in this build are skipped (an older tool's facts must not crash
// a newer one). Empty input is a valid empty store: cmd/go materializes
// zero-byte vetx files for fact-free packages.
func (s *FactStore) Decode(data []byte, analyzers []*Analyzer) error {
	if len(data) == 0 {
		return nil
	}
	registry := map[string]map[string]reflect.Type{}
	for _, a := range analyzers {
		m := map[string]reflect.Type{}
		for _, f := range a.FactTypes {
			m[factTypeName(f)] = reflect.TypeOf(f)
		}
		registry[a.Name] = m
	}
	var wf wireFacts
	if err := json.Unmarshal(data, &wf); err != nil {
		return fmt.Errorf("decoding facts: %w", err)
	}
	if wf.Version != factsVersion {
		return fmt.Errorf("facts version %d, tool supports %d", wf.Version, factsVersion)
	}
	for _, w := range wf.Facts {
		typ, ok := registry[w.Analyzer][w.Type]
		if !ok {
			continue
		}
		fv := reflect.New(typ.Elem())
		if err := json.Unmarshal(w.Data, fv.Interface()); err != nil {
			return fmt.Errorf("decoding %s fact %s for %s.%s: %w", w.Analyzer, w.Type, w.Pkg, w.Object, err)
		}
		f, ok := fv.Interface().(Fact)
		if !ok {
			continue
		}
		s.put(w.Analyzer, ObjectKey{Pkg: w.Pkg, Object: w.Object}, f)
	}
	return nil
}

// ---------------------------------------------------------------------------
// Object paths

// ObjectKeyOf computes the cross-unit key of an object: a package-level
// type/func/var, a method, or a field of a package-level struct type. It
// reports false for objects outside that vocabulary (locals, unnamed types),
// which simply cannot carry facts.
func ObjectKeyOf(obj types.Object) (ObjectKey, bool) {
	pkg := obj.Pkg()
	if pkg == nil {
		return ObjectKey{}, false
	}
	// Methods: Recv.Name.
	if fn, ok := obj.(*types.Func); ok {
		sig, _ := fn.Type().(*types.Signature)
		if sig != nil && sig.Recv() != nil {
			recv := NamedType(sig.Recv().Type())
			if recv == "" {
				return ObjectKey{}, false
			}
			return ObjectKey{Pkg: pkg.Path(), Object: recv + "." + fn.Name()}, true
		}
	}
	// Struct fields: Owner.Name, found by scanning package-level types.
	if v, ok := obj.(*types.Var); ok && v.IsField() {
		if owner := fieldOwner(pkg, v); owner != "" {
			return ObjectKey{Pkg: pkg.Path(), Object: owner + "." + v.Name()}, true
		}
		return ObjectKey{}, false
	}
	if obj.Parent() == pkg.Scope() {
		return ObjectKey{Pkg: pkg.Path(), Object: obj.Name()}, true
	}
	return ObjectKey{}, false
}

// fieldOwner finds the package-level struct type declaring the field.
func fieldOwner(pkg *types.Package, field *types.Var) string {
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			if st.Field(i) == field {
				return name
			}
		}
	}
	return ""
}
