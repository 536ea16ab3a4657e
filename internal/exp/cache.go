package exp

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	dragonfly "repro"
	"repro/internal/engine"
)

// Cache is a content-addressed store of simulation results on disk: one
// JSON file per point, named by the SHA-256 of the canonicalized
// configuration and the engine's results version. Because the engine is
// deterministic, the canonical config fully determines the result, so a
// hit is always safe to reuse — across campaign runs, across tools, and
// across worker counts (Config.Canonical clears Workers). Bumping
// engine.ResultsVersion invalidates every entry at once.
//
// Entries are written atomically (temp file + rename), so concurrent
// campaigns sharing a directory at worst duplicate work, never corrupt
// entries; unreadable or stale-format entries count as misses and are
// overwritten.
type Cache struct {
	dir          string
	hits, misses atomic.Int64
}

// cacheFormat versions the entry file layout itself (not the simulation
// semantics — that is engine.ResultsVersion's job).
const cacheFormat = 1

// entry is the on-disk layout. Config is stored canonicalized, purely for
// human inspection of a cache directory; only Result is read back.
type entry struct {
	Format        int              `json:"format"`
	EngineVersion int              `json:"engine_version"`
	Config        dragonfly.Config `json:"config"`
	Result        dragonfly.Result `json:"result"`
}

// OpenCache opens (creating if needed) a cache directory.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: open cache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// keyHeader opens the hashed bytes of every key: the entry format and
// the engine results version, so bumping either re-addresses every entry.
var keyHeader = fmt.Sprintf("dragonfly-exp-cache/%d engine/%d\n", cacheFormat, engine.ResultsVersion)

// Key returns the content address of a configuration: the hex SHA-256 of
// keyHeader followed by the configuration's canonical JSON.
func (c *Cache) Key(cfg dragonfly.Config) string {
	cd := getCodec()
	defer cd.release()
	cd.buf.WriteString(keyHeader)
	if err := cd.encode(cfg.Canonical()); err != nil {
		// Config is a flat struct of scalars; Marshal cannot fail on it.
		panic(fmt.Sprintf("exp: marshal config: %v", err))
	}
	sum := sha256.Sum256(cd.buf.Bytes())
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".json")
}

// Get looks a key up, counting the hit or miss. The entry is read into
// a pooled buffer; Unmarshal copies what the Result keeps.
func (c *Cache) Get(key string) (dragonfly.Result, bool) {
	cd := getCodec()
	defer cd.release()
	if cd.readFile(c.path(key)) == nil {
		var e entry
		if json.Unmarshal(cd.buf.Bytes(), &e) == nil &&
			e.Format == cacheFormat && e.EngineVersion == engine.ResultsVersion {
			c.hits.Add(1)
			return e.Result, true
		}
	}
	c.misses.Add(1)
	return dragonfly.Result{}, false
}

// Put stores a result under key, atomically.
func (c *Cache) Put(key string, cfg dragonfly.Config, res dragonfly.Result) error {
	_, err := c.put(key, cfg, res)
	return err
}

// put is Put reporting the entry's size in bytes, so a Store can count
// it without a Stat. The entry is json.MarshalIndent's bytes plus a
// newline: the encoder's line, indented into the codec's second buffer.
func (c *Cache) put(key string, cfg dragonfly.Config, res dragonfly.Result) (int64, error) {
	cd := getCodec()
	defer cd.release()
	if err := cd.enc.Encode(&entry{
		Format:        cacheFormat,
		EngineVersion: engine.ResultsVersion,
		Config:        cfg.Canonical(),
		Result:        res,
	}); err != nil {
		return 0, fmt.Errorf("exp: encode cache entry: %w", err)
	}
	if err := json.Indent(&cd.indent, cd.buf.Bytes(), "", "  "); err != nil {
		return 0, fmt.Errorf("exp: encode cache entry: %w", err)
	}
	tmp, err := os.CreateTemp(c.dir, key+".tmp*")
	if err != nil {
		return 0, fmt.Errorf("exp: write cache entry: %w", err)
	}
	if _, err := tmp.Write(cd.indent.Bytes()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("exp: write cache entry: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("exp: write cache entry: %w", err)
	}
	if err := os.Rename(tmp.Name(), c.path(key)); err != nil {
		os.Remove(tmp.Name())
		return 0, fmt.Errorf("exp: write cache entry: %w", err)
	}
	return int64(cd.indent.Len()), nil
}

// Stats reports the lookups served from the cache and the lookups that
// missed since the Cache was opened.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}

// Size reports the on-disk size in bytes of an entry, or 0 if it does
// not exist.
func (c *Cache) Size(key string) int64 {
	fi, err := os.Stat(c.path(key))
	if err != nil {
		return 0
	}
	return fi.Size()
}

// Remove deletes an entry. Removing a key that does not exist is not an
// error — a concurrent writer may have already replaced or dropped it.
func (c *Cache) Remove(key string) error {
	if err := os.Remove(c.path(key)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("exp: remove cache entry: %w", err)
	}
	return nil
}

// CacheEntry describes one on-disk entry, for directory scans.
type CacheEntry struct {
	Key     string
	Size    int64
	ModTime time.Time
}

// Entries lists the entries currently in the cache directory, skipping
// in-progress temp files and anything that is not a cache entry.
func (c *Cache) Entries() ([]CacheEntry, error) {
	des, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, fmt.Errorf("exp: scan cache: %w", err)
	}
	var out []CacheEntry
	for _, de := range des {
		name := de.Name()
		key, ok := strings.CutSuffix(name, ".json")
		if !ok || de.IsDir() || strings.Contains(key, ".") {
			continue // temp file ("<key>.tmp*") or foreign file
		}
		fi, err := de.Info()
		if err != nil {
			continue // raced with a concurrent Remove
		}
		out = append(out, CacheEntry{Key: key, Size: fi.Size(), ModTime: fi.ModTime()})
	}
	return out, nil
}
