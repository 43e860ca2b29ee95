package server

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// TestCacheFIFOEviction pins the memory tier's eviction order: under
// max pressure the oldest inserted entries leave first, and re-putting
// an existing hash does not reorder it.
func TestCacheFIFOEviction(t *testing.T) {
	c := NewCache(3, "", 0)
	for i := 0; i < 5; i++ {
		c.Put(fmt.Sprintf("h%d", i), []byte{byte(i)})
	}
	if c.Len() != 3 {
		t.Fatalf("memory tier holds %d entries, want 3", c.Len())
	}
	for i := 0; i < 2; i++ {
		if _, ok := c.Get(fmt.Sprintf("h%d", i)); ok {
			t.Errorf("h%d survived FIFO eviction", i)
		}
	}
	for i := 2; i < 5; i++ {
		data, ok := c.Get(fmt.Sprintf("h%d", i))
		if !ok || data[0] != byte(i) {
			t.Errorf("h%d missing after eviction round", i)
		}
	}
	// A duplicate put must not push a fresh entry out of order.
	c.Put("h2", []byte{99})
	c.Put("h5", []byte{5})
	if _, ok := c.Get("h2"); ok {
		// h2 was the oldest; inserting h5 evicts it regardless of the
		// duplicate put (FIFO is insertion-ordered, not recency-ordered).
		t.Error("duplicate put refreshed h2's FIFO position")
	}
	if data, ok := c.Get("h3"); !ok || data[0] != 3 {
		t.Error("h3 lost")
	}
}

// TestCacheDiskReserveAfterMemoryEviction pins the two-tier contract:
// an entry evicted from memory is re-served from the spill directory,
// and the disk hit is promoted back into the memory tier.
func TestCacheDiskReserveAfterMemoryEviction(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(1, dir, 0)
	c.Put("a", []byte("alpha"))
	c.Put("b", []byte("beta")) // evicts a from memory; both on disk

	if c.Len() != 1 {
		t.Fatalf("memory tier holds %d entries, want 1", c.Len())
	}
	data, ok := c.Get("a")
	if !ok || string(data) != "alpha" {
		t.Fatalf("evicted entry not re-served from disk: %q %v", data, ok)
	}
	// Promotion-on-Get: the disk hit is back in memory (and b was
	// FIFO-evicted to make room), so deleting the file does not lose it.
	if err := os.Remove(filepath.Join(dir, "a.json.gz")); err != nil {
		t.Fatal(err)
	}
	data, ok = c.Get("a")
	if !ok || string(data) != "alpha" {
		t.Fatal("disk hit was not promoted into the memory tier")
	}
	// b fell out of memory during the promotion but survives on disk.
	if data, ok := c.Get("b"); !ok || string(data) != "beta" {
		t.Fatal("b lost from both tiers")
	}
}

// TestCacheDiskCap pins the -cache-disk-max satellite: the spill
// directory is bounded, oldest-mtime entries leave first, and the
// DiskLen gauge tracks it.
func TestCacheDiskCap(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(16, dir, 3)
	for i := 0; i < 6; i++ {
		hash := fmt.Sprintf("d%d", i)
		c.Put(hash, []byte{byte(i)})
		// Distinct mtimes: the filesystem clock may be coarse.
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, hash+".json.gz"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	// One more put triggers eviction down to the cap.
	c.Put("d6", []byte{6})
	if got := c.DiskLen(); got != 3 {
		t.Fatalf("disk tier holds %d entries, want 3", got)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.json.gz"))
	if err != nil || len(files) != 3 {
		t.Fatalf("spill directory holds %d files: %v", len(files), err)
	}
	for _, old := range []string{"d0", "d1", "d2", "d3"} {
		if _, err := os.Stat(filepath.Join(dir, old+".json.gz")); err == nil {
			t.Errorf("oldest entry %s survived the disk cap", old)
		}
	}
	for _, kept := range []string{"d4", "d5", "d6"} {
		if _, err := os.Stat(filepath.Join(dir, kept+".json.gz")); err != nil {
			t.Errorf("recent entry %s evicted: %v", kept, err)
		}
	}
}

// TestCacheDiskCapAtStartup: a restart over an oversized spill
// directory counts the existing entries and trims to the cap.
func TestCacheDiskCapAtStartup(t *testing.T) {
	dir := t.TempDir()
	warm := NewCache(16, dir, 0)
	for i := 0; i < 5; i++ {
		hash := fmt.Sprintf("s%d", i)
		warm.Put(hash, []byte{byte(i)})
		past := time.Now().Add(time.Duration(i-10) * time.Second)
		if err := os.Chtimes(filepath.Join(dir, hash+".json.gz"), past, past); err != nil {
			t.Fatal(err)
		}
	}
	c := NewCache(16, dir, 2)
	if got := c.DiskLen(); got != 2 {
		t.Fatalf("restarted disk tier holds %d entries, want 2", got)
	}
	if _, ok := c.Get("s4"); !ok {
		t.Error("newest entry evicted at startup")
	}
	if _, err := os.Stat(filepath.Join(dir, "s0.json.gz")); err == nil {
		t.Error("oldest entry survived the startup trim")
	}
}

// TestCacheGzipSpill pins the compressed spill format: writes land as
// .json.gz with the compressed size smaller than the raw payload,
// DiskBytes accounts them, a restart recovers the raw size from the
// gzip ISIZE trailer, a corrupt gzip spill file reads as a miss, and a
// stray plain .json file in the directory is ignored.
func TestCacheGzipSpill(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "stray.json"), []byte(`{"stray":true}`), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewCache(1, dir, 0)
	if got := c.DiskLen(); got != 0 {
		t.Fatalf("startup scan counted %d entries, want the stray .json ignored", got)
	}
	if _, ok := c.Get("stray"); ok {
		t.Fatal("stray .json file served")
	}

	// A compressible payload spills as gzip and shrinks on disk.
	payload := bytes.Repeat([]byte(`{"k":"vvvvvvvv"}`), 256)
	c.Put("new", payload)
	c.Put("spacer", []byte("x")) // push "new" out of the memory tier
	if _, err := os.Stat(filepath.Join(dir, "new.json.gz")); err != nil {
		t.Fatalf("new entry not spilled as .json.gz: %v", err)
	}
	raw, comp := c.DiskBytes()
	wantRaw := int64(len(payload) + 1)
	if raw != wantRaw {
		t.Fatalf("raw accounting %d, want %d", raw, wantRaw)
	}
	if comp >= raw {
		t.Fatalf("compressed accounting %d not below raw %d for a compressible payload", comp, raw)
	}
	if data, ok := c.Get("new"); !ok || string(data) != string(payload) {
		t.Fatal("gzip spill round-trip lost the payload")
	}

	// A restart re-scans the directory: raw sizes are recovered from the
	// gzip ISIZE trailer, the entry is still readable and the stray
	// .json is still not counted.
	c2 := NewCache(1, dir, 0)
	if got := c2.DiskLen(); got != 2 {
		t.Fatalf("restart scan found %d entries, want 2", got)
	}
	raw2, comp2 := c2.DiskBytes()
	if raw2 != raw || comp2 != comp {
		t.Fatalf("restart accounting raw=%d comp=%d, want %d/%d", raw2, comp2, raw, comp)
	}
	if data, ok := c2.Get("new"); !ok || string(data) != string(payload) {
		t.Fatal("gzip entry unreadable after restart")
	}

	// A corrupt gzip spill file reads as a miss.
	if err := os.WriteFile(filepath.Join(dir, "bad.json.gz"), []byte("\x1f\x8bnot gzip"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := NewCache(1, dir, 0).Get("bad"); ok {
		t.Fatal("corrupt gzip spill file served")
	}
}

// TestCacheStoresCompressedCopy pins the stored form: Put returns the
// gzip copy it stores, the memory tier holds exactly that copy, the
// spill file holds the same bytes, Get inflates it back to the
// document, and the disk-bytes gauges still count the document's size
// (raw) and the file's (compressed).
func TestCacheStoresCompressedCopy(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(4, dir, 0)
	doc := bytes.Repeat([]byte(`{"slot":12345,"ok":true}`), 200)
	gz := c.Put("k", doc)
	if len(gz) < 2 || gz[0] != 0x1f || gz[1] != 0x8b {
		t.Fatalf("Put returned %d bytes without the gzip magic", len(gz))
	}
	if mem := c.entries["k"]; !bytes.Equal(mem, gz) {
		t.Fatal("memory tier does not hold the stored gzip copy")
	}
	file, err := os.ReadFile(filepath.Join(dir, "k.json.gz"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(file, gz) {
		t.Fatal("spill file differs from the memory tier's bytes")
	}
	if stored, ok := c.Stored("k"); !ok || !bytes.Equal(stored, gz) {
		t.Fatal("Stored does not return the stored copy")
	}
	if got, ok := c.Get("k"); !ok || !bytes.Equal(got, doc) {
		t.Fatal("Get does not inflate the stored copy to the document")
	}
	if raw, comp := c.DiskBytes(); raw != int64(len(doc)) || comp != int64(len(file)) {
		t.Fatalf("disk gauges raw=%d comp=%d, want %d/%d", raw, comp, len(doc), len(file))
	}
	// A restart serves the spill file's bytes unchanged.
	c2 := NewCache(4, dir, 0)
	if stored, ok := c2.Stored("k"); !ok || !bytes.Equal(stored, gz) {
		t.Fatal("restarted cache does not serve the spilled copy as stored")
	}
}

// TestCacheConcurrentCompress: goroutines storing and reading distinct
// documents at once share the one compressor; every document must
// round-trip intact (and, under -race, without a data race).
func TestCacheConcurrentCompress(t *testing.T) {
	c := NewCache(64, t.TempDir(), 0)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				key := fmt.Sprintf("g%d-%d", g, i)
				doc := bytes.Repeat([]byte(key+","), 100+g*i)
				c.Put(key, doc)
				if got, ok := c.Get(key); !ok || !bytes.Equal(got, doc) {
					t.Errorf("%s did not round-trip", key)
				}
			}
		}(g)
	}
	wg.Wait()
}
