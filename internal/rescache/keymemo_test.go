package rescache_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"waitfree"
	"waitfree/internal/consensus"
	"waitfree/internal/explore"
	"waitfree/internal/faults"
	"waitfree/internal/program"
	"waitfree/internal/rescache"
	"waitfree/internal/types"
)

// memoShape is one registry protocol at one process count.
type memoShape struct {
	name  string
	procs int
}

// memoShapes lists every registry protocol at its default process count,
// and the scalable ones at 3 and 5 as well.
func memoShapes() []memoShape {
	var out []memoShape
	for _, p := range waitfree.Protocols() {
		out = append(out, memoShape{p.Name, 0})
		if p.Scalable() {
			out = append(out, memoShape{p.Name, 3}, memoShape{p.Name, 5})
		}
	}
	return out
}

func build(t testing.TB, name string, procs int) *program.Implementation {
	t.Helper()
	im, err := waitfree.BuildProtocol(name, procs)
	if err != nil {
		t.Fatal(err)
	}
	return im
}

// memoSpecs keys im every way a request can: consensus at k = 2 and 3,
// bound, and elimination with and without a Section 5.3 substrate, each
// with faults off and on.
func memoSpecs(im, substrate *program.Implementation) map[string]rescache.KeySpec {
	out := map[string]rescache.KeySpec{}
	for _, fm := range []faults.Model{{}, {MaxCrashes: 1}} {
		opts := explore.Options{Faults: fm}
		tag := fmt.Sprintf("faults=%d", fm.MaxCrashes)
		out["consensus/k=2/"+tag] = rescache.KeySpec{Kind: "consensus", Implementation: im, Explore: opts}
		out["consensus/k=3/"+tag] = rescache.KeySpec{Kind: "consensus", Values: 3, Implementation: im, Explore: opts}
		out["bound/"+tag] = rescache.KeySpec{Kind: "bound", Implementation: im, Explore: opts}
		out["elimination/"+tag] = rescache.KeySpec{Kind: "elimination", Implementation: im, Explore: opts}
		out["elimination+substrate/"+tag] = rescache.KeySpec{Kind: "elimination", Implementation: im, Substrate: substrate, Explore: opts}
	}
	return out
}

type keyResult struct {
	key rescache.Key
	err error
}

func keyOf(spec rescache.KeySpec) keyResult {
	k, err := rescache.RequestKey(spec)
	return keyResult{k, err}
}

// sameResult compares two keyings: equal keys, or the same error. A
// failure must be explore.ErrUncanonical, the only one a registry
// protocol produces.
func sameResult(t *testing.T, what string, got, want keyResult) {
	t.Helper()
	switch {
	case (got.err == nil) != (want.err == nil):
		t.Errorf("%s: error %v, want %v", what, got.err, want.err)
	case got.err != nil:
		if !errors.Is(got.err, explore.ErrUncanonical) || got.err.Error() != want.err.Error() {
			t.Errorf("%s: error %v, want %v", what, got.err, want.err)
		}
	case got.key != want.key:
		t.Errorf("%s: memoized key %s, fresh key %s", what, got.key.Hex(), want.key.Hex())
	}
}

// TestRequestKeyMemoParity pins the canonical-encoding memo to the
// unmemoized derivation: for every registry protocol and request shape,
// keying a shared implementation again gives the key (or the wrapped
// ErrUncanonical) of a freshly built one, and still does after the memo
// has been filled past its capacity.
func TestRequestKeyMemoParity(t *testing.T) {
	sub := build(t, "noisysticky", 0)
	type shared struct {
		what string
		spec rescache.KeySpec
		want keyResult
	}
	var all []shared
	uncanonical := 0
	for _, sh := range memoShapes() {
		im := build(t, sh.name, sh.procs)
		specs := memoSpecs(im, sub)
		fresh := memoSpecs(build(t, sh.name, sh.procs), build(t, "noisysticky", 0))
		for name, spec := range specs {
			what := fmt.Sprintf("%s/%d/%s", sh.name, sh.procs, name)
			first := keyOf(spec)
			again := keyOf(spec)
			want := keyOf(fresh[name])
			sameResult(t, what+" (first)", first, want)
			sameResult(t, what+" (memoized)", again, want)
			if want.err != nil {
				uncanonical++
				if again.err != first.err {
					t.Errorf("%s: memoized failure is a different error value", what)
				}
			}
			all = append(all, shared{what, spec, want})
		}
	}
	if uncanonical == 0 {
		t.Error("no registry protocol failed canonicalization; faa is expected to")
	}
	if _, err := rescache.RequestKey(rescache.KeySpec{Kind: "consensus", Implementation: build(t, "faa", 0)}); !errors.Is(err, explore.ErrUncanonical) {
		t.Errorf("faa: err %v, want wrapped ErrUncanonical", err)
	}

	// Fill the memo past its capacity with fresh implementations; every
	// shared key must come out unchanged whether its entry survived or
	// was cleared.
	for i := 0; i <= rescache.CanonMemoCap; i++ {
		if _, err := rescache.RequestKey(rescache.KeySpec{Kind: "consensus", Implementation: consensus.CAS(2)}); err != nil {
			t.Fatal(err)
		}
	}
	if n := rescache.CanonMemoLen(); n > rescache.CanonMemoCap {
		t.Errorf("memo holds %d entries, cap %d", n, rescache.CanonMemoCap)
	}
	for _, s := range all {
		sameResult(t, s.what+" (after overflow)", keyOf(s.spec), s.want)
	}
}

// TestRequestKeyMemoCopyKeyedAfresh checks that the memo keys by
// identity, not by name or shape: a struct copy of an implementation with
// one machine replaced is a new pointer and gets its own key, and the
// original keeps its own.
func TestRequestKeyMemoCopyKeyedAfresh(t *testing.T) {
	im := build(t, "cas", 3)
	spec := rescache.KeySpec{Kind: "consensus", Implementation: im}
	orig := keyOf(spec)
	if orig.err != nil {
		t.Fatal(orig.err)
	}
	mutant := func() *program.Implementation {
		cp := *im
		cp.Machines = append([]program.Machine(nil), im.Machines...)
		cp.Machines[0] = program.ConstMachine(types.ValOf(0))
		return &cp
	}
	cp := keyOf(rescache.KeySpec{Kind: "consensus", Implementation: mutant()})
	if cp.err != nil {
		t.Fatal(cp.err)
	}
	if cp.key == orig.key {
		t.Fatal("copy with a replaced machine was served the original's key")
	}
	if again := keyOf(rescache.KeySpec{Kind: "consensus", Implementation: mutant()}); again != cp {
		t.Errorf("two equal copies keyed differently: %s vs %s", again.key.Hex(), cp.key.Hex())
	}
	n := rescache.CanonMemoLen()
	if again := keyOf(spec); again != orig {
		t.Error("keying the copy changed the original's key")
	}
	if rescache.CanonMemoLen() != n {
		t.Error("re-keying the original added a memo entry instead of hitting its own")
	}
}

// warmShape is one serve-warm request shape.
type warmShape struct {
	kind  string
	name  string
	procs int
	fm    faults.Model
}

// warmShapes are the 40 request shapes of the serve-warm benchmark
// workload: cas, sticky, augqueue and fetchcons at 3 to 5 processes as
// consensus, crash-stop consensus and bound requests, cas/5 and
// fetchcons/5 consensus again, and cas/3 and fetchcons/3 elimination.
func warmShapes() []warmShape {
	var out []warmShape
	for _, p := range []string{"cas", "sticky", "augqueue", "fetchcons"} {
		for n := 3; n <= 5; n++ {
			out = append(out,
				warmShape{"consensus", p, n, faults.Model{}},
				warmShape{"consensus", p, n, faults.Model{MaxCrashes: 1}},
				warmShape{"bound", p, n, faults.Model{}})
		}
	}
	return append(out,
		warmShape{"consensus", "cas", 5, faults.Model{}},
		warmShape{"consensus", "fetchcons", 5, faults.Model{}},
		warmShape{"elimination", "cas", 3, faults.Model{}},
		warmShape{"elimination", "fetchcons", 3, faults.Model{}})
}

// BenchmarkRequestKey derives serve-warm's keys round-robin, one key per
// op. "fresh" builds a new implementation for every key, so each pays the
// full tabulation (the library caller that rebuilds per Check); "shared"
// reuses one implementation per shape, as the daemon's compiled-protocol
// table does, so each is a memo hit. "classification" keys the zoo, which
// is tabulated once per process.
func BenchmarkRequestKey(b *testing.B) {
	shapes := warmShapes()
	run := func(b *testing.B, implOf func(i int) *program.Implementation) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sh := shapes[i%len(shapes)]
			spec := rescache.KeySpec{Kind: sh.kind, Implementation: implOf(i % len(shapes)),
				Explore: explore.Options{Faults: sh.fm}}
			if _, err := rescache.RequestKey(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("fresh", func(b *testing.B) {
		run(b, func(i int) *program.Implementation { return build(b, shapes[i].name, shapes[i].procs) })
	})
	b.Run("shared", func(b *testing.B) {
		shared := make([]*program.Implementation, len(shapes))
		for i, sh := range shapes {
			shared[i] = build(b, sh.name, sh.procs)
		}
		run(b, func(i int) *program.Implementation { return shared[i] })
	})
	b.Run("classification", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := rescache.RequestKey(rescache.KeySpec{Kind: "classification"}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestRequestKeyMemoConcurrent keys shared and fresh implementations from
// several goroutines at once, enough fresh ones to clear the memo while
// others read it; every key must match its single-goroutine value. Run it
// under -race.
func TestRequestKeyMemoConcurrent(t *testing.T) {
	shapes := warmShapes()
	shared := make([]*program.Implementation, len(shapes))
	want := make([]rescache.Key, len(shapes))
	for i, sh := range shapes {
		shared[i] = build(t, sh.name, sh.procs)
		k, err := rescache.RequestKey(rescache.KeySpec{Kind: sh.kind, Implementation: shared[i], Explore: explore.Options{Faults: sh.fm}})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = k
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rescache.CanonMemoCap/2; i++ {
				n := (i + w) % len(shapes)
				sh := shapes[n]
				im := shared[n]
				if i%2 == 1 {
					var err error
					if im, err = waitfree.BuildProtocol(sh.name, sh.procs); err != nil {
						t.Error(err)
						return
					}
				}
				k, err := rescache.RequestKey(rescache.KeySpec{Kind: sh.kind, Implementation: im, Explore: explore.Options{Faults: sh.fm}})
				if err != nil || k != want[n] {
					t.Errorf("%s %s/%d: key %s, err %v; want %s", sh.kind, sh.name, sh.procs, k.Hex(), err, want[n].Hex())
					return
				}
			}
		}(w)
	}
	wg.Wait()
}
