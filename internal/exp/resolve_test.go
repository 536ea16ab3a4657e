package exp

import (
	"context"
	"errors"
	"os"
	"strings"
	"testing"

	dragonfly "repro"
)

// fakeStore is a scriptable result store that counts its calls.
type fakeStore struct {
	held            map[string]dragonfly.Result
	putErr          error
	keys, gets, put int
}

func (f *fakeStore) Key(cfg dragonfly.Config) string {
	f.keys++
	return "k"
}

func (f *fakeStore) Get(key string) (dragonfly.Result, bool) {
	f.gets++
	res, ok := f.held[key]
	return res, ok
}

func (f *fakeStore) Put(key string, _ dragonfly.Config, res dragonfly.Result) error {
	f.put++
	if f.putErr != nil {
		return f.putErr
	}
	f.held[key] = res
	return nil
}

// TestResolve pins the resolve policy every front door shares.
func TestResolve(t *testing.T) {
	stored, fresh := dragonfly.Result{Delivered: 1}, dragonfly.Result{Delivered: 2}
	errSim, errDisk := errors.New("sim failed"), errors.New("disk full")
	cases := []struct {
		name      string
		held      bool   // the store already has the point
		key       string // caller-supplied key
		runErr    error
		putErr    error
		cancelRun bool // ctx is canceled while run executes

		wantRes             dragonfly.Result
		wantHit             bool
		wantErr             error
		wantRuns, wantKeys  int
		wantPuts, wantFails int
	}{
		{name: "hit", held: true, wantRes: stored, wantHit: true, wantKeys: 1},
		{name: "miss", wantRes: fresh, wantRuns: 1, wantKeys: 1, wantPuts: 1},
		{name: "caller-supplied key", key: "k", wantRes: fresh, wantRuns: 1, wantPuts: 1},
		{name: "run error", runErr: errSim, wantErr: errSim, wantRuns: 1, wantKeys: 1},
		{name: "put error", putErr: errDisk, wantRes: fresh, wantRuns: 1, wantKeys: 1, wantPuts: 1, wantFails: 1},
		{name: "canceled mid-run", cancelRun: true, wantRes: fresh, wantRuns: 1, wantKeys: 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := &fakeStore{held: map[string]dragonfly.Result{}, putErr: tc.putErr}
			if tc.held {
				st.held["k"] = stored
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			runs, fails := 0, 0
			res, hit, err := Resolve(ctx, st, tc.key, dragonfly.Config{},
				func() (dragonfly.Result, error) {
					runs++
					if tc.cancelRun {
						cancel()
					}
					if tc.runErr != nil {
						return dragonfly.Result{}, tc.runErr
					}
					return fresh, nil
				},
				func(err error) {
					fails++
					if err != tc.putErr {
						t.Errorf("putFailed got %v, want %v", err, tc.putErr)
					}
				})
			if res.Delivered != tc.wantRes.Delivered || hit != tc.wantHit || err != tc.wantErr {
				t.Errorf("Resolve = (%d delivered, hit %v, %v), want (%d, %v, %v)",
					res.Delivered, hit, err, tc.wantRes.Delivered, tc.wantHit, tc.wantErr)
			}
			if runs != tc.wantRuns || st.keys != tc.wantKeys || st.gets != 1 || st.put != tc.wantPuts || fails != tc.wantFails {
				t.Errorf("runs %d, keys %d, gets %d, puts %d, put failures %d; want %d, %d, 1, %d, %d",
					runs, st.keys, st.gets, st.put, fails, tc.wantRuns, tc.wantKeys, tc.wantPuts, tc.wantFails)
			}
		})
	}
}

// TestResolveWithoutStore: a nil pointer of any store type — the shape
// Options.Cache and WorkerConfig.Store take when unset — is "no store":
// run executes, nothing is looked up or stored, nothing panics.
func TestResolveWithoutStore(t *testing.T) {
	run := func() (dragonfly.Result, error) { return dragonfly.Result{Delivered: 3}, nil }
	noPut := func(err error) { t.Errorf("putFailed(%v) without a store", err) }
	check := func(name string, res dragonfly.Result, hit bool, err error) {
		if res.Delivered != 3 || hit || err != nil {
			t.Errorf("%s: Resolve = (%d delivered, hit %v, %v), want (3, false, nil)", name, res.Delivered, hit, err)
		}
	}
	ctx := context.Background()
	res, hit, err := Resolve(ctx, (*Cache)(nil), "", dragonfly.Config{}, run, noPut)
	check("nil *Cache", res, hit, err)
	res, hit, err = Resolve(ctx, (*Store)(nil), "", dragonfly.Config{}, run, noPut)
	check("nil *Store", res, hit, err)
	res, hit, err = Resolve(ctx, (*fakeStore)(nil), "", dragonfly.Config{}, run, noPut)
	check("nil fake", res, hit, err)
}

// TestRunSurfacesBrokenCacheOnce: a cache that cannot persist fails no
// point — every outcome carries its result — and surfaces as one
// campaign-level error, not one per point.
func TestRunSurfacesBrokenCacheOnce(t *testing.T) {
	dir := t.TempDir()
	cache, err := OpenCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	camp := tinyCampaign()
	outs, err := Run(context.Background(), camp, Options{Workers: 2, Cache: cache, Run: syntheticRun})
	if err == nil {
		t.Fatal("broken cache not surfaced")
	}
	if n := strings.Count(err.Error(), "write cache entry"); n != 1 {
		t.Fatalf("cache error surfaced %d times, want once: %v", n, err)
	}
	if perr := PointErrors(outs); perr != nil {
		t.Fatalf("broken cache failed points: %v", perr)
	}
	for i := range outs {
		if want, _ := syntheticRun(context.Background(), i, outs[i].Point); outs[i].Result.Delivered != want.Delivered {
			t.Fatalf("point %d lost its result: %+v", i, outs[i].Result)
		}
	}
}
