package server

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"io"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dynsched/internal/metrics"
	"dynsched/internal/sim"
)

// resultKey is the cache key of a spec or plan hash: the hash
// namespaced by the engine's stream version. A result document is a
// function of the spec and that version, so documents stored under an
// older stream (a restarted daemon's spill directory, a checkpoint, a
// fleet peer's cache) are never served for a spec the current engine
// would simulate differently. Hashes on the API, in plans and in the
// journal stay bare; every cache store and lookup goes through here.
func resultKey(hash string) string {
	return "s" + strconv.Itoa(sim.StreamVersion) + "-" + hash
}

// Cache is the content-addressed result store: marshaled result
// documents (sim.Result for single runs and per-plan units,
// dynsched.PlanResult for assembled plans) keyed by opaque strings, in
// practice result keys (resultKey: canonical hashes namespaced by the
// engine stream version). Every document is stored compressed: Put
// gzips it once (BestSpeed) and that one copy is what the memory tier
// holds, what the job that produced it holds, and what the spill tier
// writes (<dir>/<key>.json.gz), so documents are inflated only when
// served or parsed. Entries live in memory up to a bounded count with
// FIFO eviction; with a spill directory configured, every entry is also
// written to disk and evicted or restarted-over entries are re-served
// from there. The disk tier is itself bounded by an entry cap with
// oldest-modification-time eviction, so a long-lived daemon cannot grow
// its spill directory without bound. Because simulations are
// deterministic in their spec (seed included), a cached document is
// bit-identical to what a fresh run of the same spec would produce.
type Cache struct {
	mu      sync.Mutex
	max     int
	dir     string
	entries map[string][]byte // key → stored (gzip) document
	order   []string          // insertion order for FIFO eviction

	// The compressor: one gzip writer and its output buffer, created on
	// first use and reused under zmu. (A sync.Pool of writers would keep
	// a 1.2 MB writer alive per concurrent compression.)
	zmu  sync.Mutex
	zw   *gzip.Writer
	zbuf bytes.Buffer

	diskMu  sync.Mutex
	diskMax int
	disk    map[string]diskEntry
	// rawBytes/compBytes track the spill tier's size: the bytes the
	// stored documents decompress to vs what they occupy on disk (the
	// dynsched_cache_disk_bytes gauge pair).
	rawBytes  int64
	compBytes int64

	// m, when set via instrument, counts hits/misses/evictions. All
	// paths tolerate a nil bundle, so the cache works uninstrumented.
	m *cacheMetrics
}

// diskEntry is the bookkeeping for one spill file: the byte sizes
// feeding the disk-bytes gauges.
type diskEntry struct {
	raw  int64
	comp int64
}

// cacheMetrics is the cache's instrument bundle (see metrics.go).
type cacheMetrics struct {
	hitsMem, hitsDisk, misses *metrics.Counter
	evictMem, evictDisk       *metrics.Counter
}

func (m *cacheMetrics) hitMemory() {
	if m != nil {
		m.hitsMem.Inc()
	}
}

func (m *cacheMetrics) hitDisk() {
	if m != nil {
		m.hitsDisk.Inc()
	}
}

func (m *cacheMetrics) miss() {
	if m != nil {
		m.misses.Inc()
	}
}

func (m *cacheMetrics) evictMemory() {
	if m != nil {
		m.evictMem.Inc()
	}
}

func (m *cacheMetrics) evictDiskN(n int) {
	if m != nil && n > 0 {
		m.evictDisk.Add(uint64(n))
	}
}

// instrument attaches the counter bundle. Call before the cache is
// shared across goroutines (the field is written without a lock).
func (c *Cache) instrument(m *cacheMetrics) { c.m = m }

// NewCache builds a cache holding up to max in-memory entries (max <= 0
// disables the memory tier) spilling to dir (empty = no disk tier),
// itself bounded to diskMax entries (0 = unbounded) with oldest-mtime
// eviction. The spill directory is created if it does not exist; if
// that fails, the disk tier is disabled — loudly, since the operator
// asked for it — rather than every write failing silently. Entries
// already in the directory (a daemon restart) are counted against the
// cap and evicted oldest-first if it is already exceeded.
func NewCache(max int, dir string, diskMax int) *Cache {
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			log.Printf("server: disabling the disk cache tier: %v", err)
			dir = ""
		}
	}
	c := &Cache{max: max, dir: dir, diskMax: diskMax, entries: map[string][]byte{}, disk: map[string]diskEntry{}}
	if dir != "" {
		if des, err := os.ReadDir(dir); err == nil {
			for _, de := range des {
				hash, ok := strings.CutSuffix(de.Name(), ".json.gz")
				if !ok {
					continue
				}
				info, err := de.Info()
				if err != nil {
					continue
				}
				raw := gzipRawSize(filepath.Join(dir, de.Name()), info.Size())
				c.addDiskLocked(hash, diskEntry{raw: raw, comp: info.Size()})
			}
		}
		c.diskMu.Lock()
		c.evictDiskLocked()
		c.diskMu.Unlock()
	}
	return c
}

// gzipRawSize recovers the decompressed size of a gzip spill file from
// its ISIZE trailer without reading the whole file. size is the on-disk
// size; malformed or truncated files report 0 and fail later at read
// time.
func gzipRawSize(path string, size int64) int64 {
	if size < 4 {
		return 0
	}
	f, err := os.Open(path)
	if err != nil {
		return 0
	}
	defer f.Close()
	var trailer [4]byte
	if _, err := f.ReadAt(trailer[:], size-4); err != nil {
		return 0
	}
	return gzipISize(trailer[:])
}

// gzipISize reads the ISIZE trailer of a gzip stream — the last four
// bytes, little-endian: the decompressed size modulo 2³².
func gzipISize(gz []byte) int64 {
	if len(gz) < 4 {
		return 0
	}
	return int64(binary.LittleEndian.Uint32(gz[len(gz)-4:]))
}

// Compress returns doc gzip-compressed at BestSpeed, the form every
// tier stores. The writer is the cache's one, serialized under zmu; the
// result is a fresh, exactly sized slice.
func (c *Cache) Compress(doc []byte) []byte {
	c.zmu.Lock()
	defer c.zmu.Unlock()
	c.zbuf.Reset()
	if c.zw == nil {
		c.zw, _ = gzip.NewWriterLevel(&c.zbuf, gzip.BestSpeed)
	} else {
		c.zw.Reset(&c.zbuf)
	}
	// Writes into a bytes.Buffer cannot fail.
	_, _ = c.zw.Write(doc)
	_ = c.zw.Close()
	return bytes.Clone(c.zbuf.Bytes())
}

// inflate returns the document a stored gzip copy holds.
func inflate(gz []byte) ([]byte, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	// ISIZE sizes the buffer (deflate expands at most ~1032:1, which
	// bounds a corrupt trailer's claim); the MinRead slack lets the
	// final EOF read land without regrowing.
	size := min(gzipISize(gz), int64(len(gz))*1032)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	if _, err := buf.ReadFrom(zr); err != nil {
		return nil, err
	}
	if err := zr.Close(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// addDiskLocked records one spill file. Used without the lock only
// during the single-goroutine constructor scan.
func (c *Cache) addDiskLocked(hash string, e diskEntry) {
	c.disk[hash] = e
	c.rawBytes += e.raw
	c.compBytes += e.comp
}

// removeDiskLocked drops one spill file's bookkeeping. Callers must
// hold diskMu.
func (c *Cache) removeDiskLocked(hash string) {
	e, ok := c.disk[hash]
	if !ok {
		return
	}
	delete(c.disk, hash)
	c.rawBytes -= e.raw
	c.compBytes -= e.comp
}

// Get returns the cached document for hash, inflated: the form a
// caller parses. Memory is consulted first, then the spill directory; a
// disk hit is promoted back into memory.
func (c *Cache) Get(hash string) ([]byte, bool) {
	gz, ok := c.Stored(hash)
	if !ok {
		return nil, false
	}
	doc, err := inflate(gz)
	if err != nil {
		return nil, false
	}
	return doc, true
}

// Stored returns the stored (gzip) copy of hash's document, without
// inflating it: what a job holds and what the wire can carry as is.
// Lookup order and promotion are Get's.
func (c *Cache) Stored(hash string) ([]byte, bool) {
	c.mu.Lock()
	if gz, ok := c.entries[hash]; ok {
		c.mu.Unlock()
		c.m.hitMemory()
		return gz, true
	}
	c.mu.Unlock()
	if c.dir == "" {
		c.m.miss()
		return nil, false
	}
	gz, ok := c.readDisk(hash)
	if !ok {
		c.m.miss()
		return nil, false
	}
	c.m.hitDisk()
	c.put(hash, gz, false)
	return gz, true
}

// readDisk loads one spill file as a stored copy, once its gzip
// checksum has been verified. Whatever the bookkeeping says, a racing
// eviction, an external cleanup or a corrupt file reads as a miss, not
// an error.
func (c *Cache) readDisk(hash string) ([]byte, bool) {
	gz, err := os.ReadFile(c.gzPath(hash))
	if err != nil {
		return nil, false
	}
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, false
	}
	if _, err := io.Copy(io.Discard, zr); err != nil || zr.Close() != nil {
		return nil, false
	}
	return gz, true
}

// Put compresses doc and stores it under hash in memory and, when
// configured, on disk, returning the stored copy. Disk writes are
// best-effort: a full or read-only spill directory degrades the cache,
// it does not fail the job.
func (c *Cache) Put(hash string, doc []byte) []byte {
	gz := c.Compress(doc)
	c.put(hash, gz, true)
	return gz
}

// PutStored stores an already-compressed copy (from Put or Compress)
// under hash, like Put.
func (c *Cache) PutStored(hash string, gz []byte) {
	c.put(hash, gz, true)
}

func (c *Cache) put(hash string, gz []byte, spill bool) {
	c.mu.Lock()
	if _, dup := c.entries[hash]; !dup && c.max > 0 {
		c.entries[hash] = gz
		c.order = append(c.order, hash)
		for len(c.order) > c.max {
			delete(c.entries, c.order[0])
			c.order = c.order[1:]
			c.m.evictMemory()
		}
	}
	c.mu.Unlock()
	if spill && c.dir != "" {
		c.diskMu.Lock()
		_, exists := c.disk[hash]
		c.diskMu.Unlock()
		if exists {
			// Content-addressed: an existing spill file already holds
			// this document.
			return
		}
		// Write-then-rename so a crashed daemon never leaves a torn
		// document a restart would serve.
		tmp := c.gzPath(hash) + ".tmp"
		if err := os.WriteFile(tmp, gz, 0o644); err == nil {
			if err := os.Rename(tmp, c.gzPath(hash)); err == nil {
				c.diskMu.Lock()
				if _, ok := c.disk[hash]; !ok {
					c.addDiskLocked(hash, diskEntry{raw: gzipISize(gz), comp: int64(len(gz))})
					c.evictDiskLocked()
				}
				c.diskMu.Unlock()
			}
		}
	}
}

// evictDiskLocked trims the spill directory to the diskMax entry cap,
// removing oldest-mtime files first. Callers must hold diskMu.
func (c *Cache) evictDiskLocked() {
	if c.diskMax <= 0 || len(c.disk) <= c.diskMax {
		return
	}
	type aged struct {
		hash  string
		mtime int64
	}
	files := make([]aged, 0, len(c.disk))
	for hash := range c.disk {
		info, err := os.Stat(c.gzPath(hash))
		if err != nil {
			// The file is already gone; drop the bookkeeping entry.
			c.removeDiskLocked(hash)
			continue
		}
		files = append(files, aged{hash: hash, mtime: info.ModTime().UnixNano()})
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime < files[j].mtime })
	removed := 0
	for _, f := range files {
		if len(c.disk) <= c.diskMax {
			break
		}
		_ = os.Remove(c.gzPath(f.hash))
		c.removeDiskLocked(f.hash)
		removed++
	}
	c.m.evictDiskN(removed)
}

// Len returns the number of in-memory entries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// DiskLen returns the number of entries in the spill directory — the
// /healthz gauge behind the -cache-disk-max cap.
func (c *Cache) DiskLen() int {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	return len(c.disk)
}

// DiskBytes returns the spill tier's size: the bytes the stored
// documents decompress to and the bytes they occupy on disk.
func (c *Cache) DiskBytes() (raw, compressed int64) {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	return c.rawBytes, c.compBytes
}

func (c *Cache) gzPath(hash string) string {
	return filepath.Join(c.dir, hash+".json.gz")
}
