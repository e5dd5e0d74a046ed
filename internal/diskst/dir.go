package diskst

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"

	"repro/internal/bufferpool"
	"repro/internal/core"
	"repro/internal/faultpoint"
	"repro/internal/seq"
	"repro/internal/suffixtree"
)

// DefaultPoolBytesPerShard is the buffer-pool capacity of each index file of
// a directory when OpenDir is given none.
const DefaultPoolBytesPerShard = 64 << 20

// tmpSuffix marks a file that is being written and is not yet part of the
// directory: Commit and BuildSharded rename it away, or Commit sweeps it.
const tmpSuffix = ".tmp"

// Dir is an index directory opened for searching, and the one owner of its
// on-disk protocol ("Directory protocol" in the package comment): it holds a
// read handle, each with a buffer pool of its own, on every file the manifest
// names — so shard searches never thrash each other's cache and page I/O
// parallelises across them — and it alone writes the next generation
// (Commit).  The exported fields describe the base corpus and never change
// after OpenDir.  Safe for concurrent use, Commit by one writer at a time.
type Dir struct {
	path      string
	poolBytes int64
	// Indexes[s] is base shard s's read handle, nil for a shard quarantined at
	// open, and Shards[s] its manifest record: its counts place the shard in
	// the global numbering, quarantined or not.
	Indexes []*Index
	Shards  []Part
	// Quarantined lists the shards whose files failed to open under
	// allowDegraded; every search over the directory is degraded by them.
	Quarantined []core.ShardError

	// gen is the generation the directory is at.  Commit replaces it whole and
	// never modifies one in place, so readers can run beside it; no handle is
	// closed before Close, so searches over an older generation stay valid.
	gen atomic.Pointer[generation]
}

// generation is a manifest and the open delta layers it names, in order.
type generation struct {
	m      *Manifest
	deltas []*Index
}

// OpenDir opens the index directory at path at the generation its manifest
// records: every base shard, every delta layer and the tombstones, each file
// through its own buffer pool of up to poolBytes (0 selects
// DefaultPoolBytesPerShard; a small file gets a proportionally small pool).
// Opening never changes the directory.
//
// Every file is checked against its own manifest record (sequence and
// residue counts) as it opens, so a file swapped, replaced or rebuilt behind
// the manifest's back never serves under another file's global numbers.
//
// allowDegraded opens the directory even when some base shard files fail to
// open (corrupt, truncated, missing, not what their record says): those
// shards are quarantined and searches complete from the survivors with
// Degraded set.  Opening still fails when every shard is unusable, and for a
// delta layer: its sequences are in no other file.
func OpenDir(path string, poolBytes int64, allowDegraded bool) (*Dir, error) {
	m, err := ReadManifest(path)
	if err != nil {
		return nil, err
	}
	d := &Dir{path: path, poolBytes: poolBytes, Shards: m.Shards}
	gen := &generation{m: m} // extended in place below, before anyone shares d
	d.gen.Store(gen)
	fail := func(err error) (*Dir, error) {
		d.Close()
		return nil, err
	}
	for i, p := range m.Shards {
		idx, err := m.openFile(path, p, poolBytes)
		if err != nil {
			err = fmt.Errorf("diskst: opening shard %d (%s): %w", i, p.File, err)
			// Each shard's file is independent, so a bad shard can be
			// quarantined and the rest served.
			if allowDegraded && len(m.Shards) > 1 {
				d.Indexes = append(d.Indexes, nil)
				d.Quarantined = append(d.Quarantined, core.ShardError{Shard: i, Err: err.Error()})
				continue
			}
			return fail(err)
		}
		d.Indexes = append(d.Indexes, idx)
	}
	if len(d.Quarantined) == len(m.Shards) {
		return fail(fmt.Errorf("diskst: every shard of %s failed to open; first: %s", path, d.Quarantined[0].Err))
	}
	for _, p := range m.Deltas {
		idx, err := m.openFile(path, p, poolBytes)
		if err != nil {
			return fail(fmt.Errorf("diskst: opening delta layer %s: %w", p.File, err))
		}
		gen.deltas = append(gen.deltas, idx)
	}
	return d, nil
}

// sweep removes the leftovers of a crashed Commit: temporary files, and delta
// files the manifest does not name (renamed into place by a commit that never
// swapped its manifest in).  Exactly those two patterns — never a file the
// manifest names, never one it cannot classify.  Only the writer sweeps, as
// each Commit begins: an opener in another process cannot tell a crashed
// commit's files from those of one in flight, and removing the latter would
// leave a manifest naming a file that is gone.  Removal is best effort: a
// leftover is harmless until the next sweep.
func sweep(dir string, m *Manifest) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return // the writes that follow report an unusable directory
	}
	named := m.files()
	for _, e := range entries {
		name := e.Name()
		leftover := strings.HasSuffix(name, tmpSuffix) ||
			strings.HasPrefix(name, "delta-") && strings.HasSuffix(name, ".oasis")
		if leftover && !slices.Contains(named, name) && e.Type().IsRegular() {
			os.Remove(filepath.Join(dir, name))
		}
	}
}

// openFile opens the index file of p (a base shard or a compacted delta)
// relative to dir, through a fresh buffer pool of up to poolBytes,
// cross-checking the file's alphabet and block size against the manifest and
// its sequence and residue counts against p.
func (m *Manifest) openFile(dir string, p Part, poolBytes int64) (*Index, error) {
	name := p.File
	if poolBytes <= 0 {
		poolBytes = DefaultPoolBytesPerShard
	}
	// The buffer pool's frames are allocated eagerly, so cap each pool
	// at what its file could ever fill — a small index must not pin
	// poolBytes of frames per file.
	bytes := poolBytes
	if fi, err := os.Stat(filepath.Join(dir, name)); err == nil && fi.Size() < bytes {
		bytes = alignUp(fi.Size(), int64(m.BlockSize))
	}
	pool := bufferpool.New(bytes, m.BlockSize)
	idx, err := Open(filepath.Join(dir, name), pool)
	if err != nil {
		return nil, err
	}
	// Cross-check the file against the manifest that named it: a file
	// built over a different alphabet or block size would silently
	// return wrong results if it were searched.
	wantAlphabet := seq.Protein
	if m.Alphabet == "dna" {
		wantAlphabet = seq.DNA
	}
	if idx.Catalog().Alphabet() != wantAlphabet {
		idx.Close()
		return nil, fmt.Errorf("file alphabet %s, manifest says %s",
			idx.Catalog().Alphabet().Name(), m.Alphabet)
	}
	if idx.BlockSize() != m.BlockSize {
		idx.Close()
		return nil, fmt.Errorf("file block size %d, manifest says %d", idx.BlockSize(), m.BlockSize)
	}
	if cat := idx.Catalog(); cat.NumSequences() != p.Sequences || cat.TotalResidues() != p.Residues {
		idx.Close()
		return nil, fmt.Errorf("file holds %d sequences / %d residues, manifest says %d / %d",
			cat.NumSequences(), cat.TotalResidues(), p.Sequences, p.Residues)
	}
	return idx, nil
}

// Generation returns the number of the generation the directory is at: 0 as
// built, then whatever its last Commit was given.
func (d *Dir) Generation() uint64 { return d.gen.Load().m.Generation }

// Deltas returns the generation's delta layers in append order — ordinary
// single-file indexes, one per compaction, each numbered on after the base
// shards and the deltas before it — and Tombstones its deleted global
// sequence indexes (base and delta alike; the sequences stay physically
// present and search filters them), ascending.  Callers must not modify
// either.
func (d *Dir) Deltas() []*Index  { return d.gen.Load().deltas }
func (d *Dir) Tombstones() []int { return d.gen.Load().m.Tombstones }

// Commit writes the directory's next generation and adopts it: tree (nil:
// none) is written as it stands as one more delta layer, tombstones replaces
// the persisted tombstone set, and gen — above every generation committed
// before — numbers the new manifest and names the new file.  It returns the
// new layer's open index (nil without a tree), which the Dir owns.
//
// This is the crash contract of the mutable index, an LSM without a WAL: a
// crash anywhere leaves the directory at some previously acknowledged
// compacted generation, and an acknowledged compaction survives power loss.
// The order of steps that holds it is in the package comment.  A failure at
// any step before the manifest rename leaves the directory and the Dir
// exactly as they were: the files this call created are removed and the
// handle it opened is closed (a crash cannot clean up; the next Commit first
// sweeps what an earlier one left).  Only if the last directory fsync fails is the
// outcome open: the new generation is complete in the directory but neither
// adopted nor acknowledged, and, like any commit whose acknowledgement is
// lost, may or may not outlive a power cut; a retry supersedes it.
// faultpoint.SiteCompactSwap fires after each step but the last, with the
// detail "build", "rename", "open" or "manifest" and the file name.
func (d *Dir) Commit(gen uint64, tree *suffixtree.Tree, tombstones []int) (idx *Index, err error) {
	cur := d.gen.Load()
	sweep(d.path, cur.m)
	next := &generation{deltas: cur.deltas}
	m := *cur.m
	m.Generation = gen
	m.Tombstones = slices.Sorted(slices.Values(tombstones))
	var made []string // files of this commit, removed if it fails
	defer func() {
		if err == nil {
			return
		}
		if idx != nil {
			idx.Close()
			idx = nil
		}
		for _, name := range made {
			os.Remove(filepath.Join(d.path, name))
		}
	}()
	step := func(name, file string) error {
		if err := faultpoint.Hit(faultpoint.SiteCompactSwap, name+" "+file); err != nil {
			return fmt.Errorf("diskst: compaction swap: %w", err)
		}
		return nil
	}
	if tree != nil {
		name := fmt.Sprintf("delta-%06d.oasis", gen)
		made = append(made, name+tmpSuffix, name)
		if _, err = Write(filepath.Join(d.path, name+tmpSuffix), tree, BuildOptions{BlockSize: m.BlockSize}); err != nil {
			return nil, fmt.Errorf("diskst: writing delta %s: %w", name, err)
		}
		if err = step("build", name); err != nil {
			return nil, err
		}
		if err = install(d.path, name); err != nil {
			return nil, err
		}
		if err = step("rename", name); err != nil {
			return nil, err
		}
		p := Part{File: name, Sequences: tree.DB().NumSequences(), Residues: tree.DB().TotalResidues()}
		if idx, err = m.openFile(d.path, p, d.poolBytes); err != nil {
			return nil, fmt.Errorf("diskst: reopening delta %s: %w", name, err)
		}
		if err = step("open", name); err != nil {
			return nil, err
		}
		m.Deltas = append(slices.Clip(m.Deltas), p)
		next.deltas = append(slices.Clip(next.deltas), idx)
	}
	made = append(made, ManifestName+tmpSuffix)
	if err = stageManifest(d.path, &m); err != nil {
		return nil, err
	}
	if err = step("manifest", ManifestName); err != nil {
		return nil, err
	}
	if err = os.Rename(filepath.Join(d.path, ManifestName+tmpSuffix), filepath.Join(d.path, ManifestName)); err != nil {
		return nil, err
	}
	made = nil // past the commit point: the manifest in place names them
	if err = syncDir(d.path); err != nil {
		return nil, err
	}
	next.m = &m
	d.gen.Store(next)
	return idx, nil
}

// install renames the finished, fsynced name.tmp in dir to name and fsyncs
// the directory: a rename alone is atomic but not durable, and POSIX lets a
// power cut keep a later rename while losing an earlier one.
func install(dir, name string) error {
	if err := os.Rename(filepath.Join(dir, name+tmpSuffix), filepath.Join(dir, name)); err != nil {
		return err
	}
	return syncDir(dir)
}

// syncDir fsyncs a directory, making the renames done in it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// PoolStats is one index's buffer-pool counters summed over the regions its
// pool reads (internal nodes and leaves; the symbols are resident), under the
// number the caller knows the index by and its file name.
type PoolStats struct {
	Shard    int     `json:"shard"`
	File     string  `json:"file"`
	Requests int64   `json:"requests"`
	Hits     int64   `json:"hits"`
	HitRatio float64 `json:"hit_ratio"`
}

// each visits every index the directory holds open, under the number
// PoolStats reports it by: the base shards under their shard numbers, then the
// delta layers — opened with the directory or by a Commit since — numbered on
// from there.
func (d *Dir) each(visit func(shard int, x *Index)) {
	for i, x := range d.Indexes {
		if x != nil { // nil: quarantined at open
			visit(i, x)
		}
	}
	for i, x := range d.Deltas() {
		visit(len(d.Indexes)+i, x)
	}
}

// PoolStats snapshots the buffer pool of every index the directory holds
// open.  Each index reads through a pool of its own, so one index's counters
// are its pool's totals: one scan of the frames per index.
func (d *Dir) PoolStats() (out []PoolStats) {
	d.each(func(shard int, x *Index) {
		fs := x.pool.Totals()
		out = append(out, PoolStats{Shard: shard, File: filepath.Base(x.path), Requests: fs.Requests, Hits: fs.Hits, HitRatio: fs.HitRatio()})
	})
	return out
}

// Close releases every file handle the directory ever opened, the delta
// layers of every Commit included.
func (d *Dir) Close() (first error) {
	d.each(func(_ int, x *Index) {
		if err := x.Close(); err != nil && first == nil {
			first = err
		}
	})
	return first
}
