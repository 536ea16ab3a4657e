package exp

import (
	"context"

	dragonfly "repro"
)

// resultStore is what Resolve needs of a result store; *Cache and
// *Store are the two implementations. comparable lets Resolve recognise
// a nil pointer of either type as "no store".
type resultStore interface {
	comparable
	Key(cfg dragonfly.Config) string
	Get(key string) (dragonfly.Result, bool)
	Put(key string, cfg dragonfly.Config, res dragonfly.Result) error
}

// Resolve is the one way a point becomes a result: content key → store
// lookup → run → persist. A hit returns the stored result without
// calling run. A miss calls run once and persists its result only if
// run succeeded and ctx is still live — nothing produced under a
// canceled context is stored as truth. A failed persist never fails the
// point: the result stands and the store's error goes to putFailed. The
// zero S (a nil *Cache or *Store) means no store: always a miss, never
// a put.
//
// key is cfg's content address when the caller already holds it (the
// server keys its in-flight dedup on it) and empty otherwise. Every
// front door — exp.Run's pool, the coordinator's campaign executor, the
// fleet worker — calls Resolve and differs only in run and putFailed.
func Resolve[S resultStore](ctx context.Context, st S, key string, cfg dragonfly.Config,
	run func() (dragonfly.Result, error), putFailed func(error)) (res dragonfly.Result, hit bool, err error) {
	var none S
	stored := st != none
	if stored {
		if key == "" {
			key = st.Key(cfg)
		}
		if res, ok := st.Get(key); ok {
			return res, true, nil
		}
	}
	res, err = run()
	if stored && err == nil && ctx.Err() == nil {
		if perr := st.Put(key, cfg, res); perr != nil {
			putFailed(perr)
		}
	}
	return res, false, err
}
