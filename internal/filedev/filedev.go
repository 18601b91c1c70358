// Package filedev implements the internal/device contract over a real
// preallocated file: pages live at zone*pagesPerZone*pageSize + off, are
// written with pwrite and read from a shared mapping of the image (or with
// pread, see below), with the same append-only/erase-before-reuse zone
// semantics the simulator enforces. Where flashsim models latency on a
// virtual clock, filedev measures it — the device clock is real
// (vtime.NewReal), so the `done` results are wall-clock completion times
// and every latency histogram in the engines reports real I/O cost
// unchanged.
//
// Semantics match flashsim exactly (the cross-backend equivalence tests pin
// this): per-zone write pointers enforced in software, short appends
// zero-padded to a full page, reads at or beyond the write pointer yield
// zeroes without touching the disk, open-zone accounting with the same
// ErrTooManyOpenZones limit, and blockable fault hooks that run outside
// zone locks. Concurrency mirrors flashsim's contract — operations on
// distinct zones never contend — and is strictly more parallel on reads:
// each zone carries an RWMutex, so reads of the *same* zone also proceed in
// parallel (flashsim serializes them on the zone mutex; nothing in the
// contract forbids the extra parallelism).
//
// Write-pointer persistence: off by default. Open formats the device —
// every zone's write pointer deterministically rebuilds to zero, whatever
// bytes the file holds (a fresh Open on an existing image is a whole-device
// reset). Config.Persist opts into warm restart: the image grows one
// superblock page past the data capacity holding the zone write pointers
// and the device generation stamp, rewritten on clean Close and invalidated
// before the first mutation after Open (see superblock.go) — so a cleanly
// closed image reopens with its write pointers and generation intact, while
// any crash still cold-formats deterministically. Because reads beyond the
// write pointer are zero-filled in software and full pages are always
// written (short appends zero-padded before pwrite), stale file contents
// can never leak into a read in either mode.
//
// Durability: appends are plain pwrites — there is no fsync per append, so
// completed appends may sit in the page cache and be lost on power failure
// (process crash is safe: the kernel owns the pages). That window is
// acceptable for a cache, which can always refill from the backing store;
// callers needing stronger guarantees must add their own sync policy.
//
// Mapped reads: in buffered mode on Linux, Open maps the data capacity
// [0, CapacityBytes) read-only and shared, and ReadPage is a copy out of
// that mapping instead of a pread system call; appends stay pwrites. The
// two are coherent because a pwrite and a shared mapping of the same file
// go through the one page cache, so a completed append is visible to the
// next mapped read. A read holds its zone's read lock, and appends and
// resets hold the write lock, so no read overlaps a write to its zone and a
// reader never sees a partial page. The write pointer stays authoritative:
// pages at or beyond it zero-fill without touching the mapping, so neither
// a reset's hole punch (which also drops the range from the mapping) nor a
// failed punch is ever visible. Close takes every zone lock before
// unmapping, and a read after Close returns an error instead of faulting.
// Mapped pages are page cache: they count in the process RSS but not in
// the Go heap. Off Linux, buffered reads are preads.
//
// Direct I/O: Config.Direct opens the image with O_DIRECT (Linux only),
// bypassing the page cache so measured latencies reflect the medium.
// PageSize must then be a multiple of 4096 and all transfers go through
// pooled 4096-aligned bounce buffers. Direct mode never maps the image (a
// mapping would read through the page cache that O_DIRECT writes bypass):
// its reads stay preads.
package filedev

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"nemo/internal/device"
	"nemo/internal/vtime"
)

// Config describes the file-backed device: image location and geometry.
type Config struct {
	// Path is the image file. Created (and sized) if missing; an existing
	// file is reused as raw storage and, unless Persist is set, always
	// reformatted (see the package comment on write-pointer persistence).
	Path string
	// PageSize is the read/program granularity in bytes (default 4096).
	PageSize int
	// PagesPerZone is the zone (erase unit) size in pages (default 256).
	PagesPerZone int
	// Zones is the number of zones on the device (default 64).
	Zones int
	// MaxOpenZones bounds the number of partially written zones. 0 means
	// unlimited. Opening a zone beyond the limit fails with
	// device.ErrTooManyOpenZones, exactly as on the simulator.
	MaxOpenZones int
	// Direct opens the image with O_DIRECT (Linux only; requires PageSize
	// to be a multiple of 4096).
	Direct bool
	// RemoveOnClose deletes the image file on Close — the mode benchmark
	// harnesses use for throwaway images.
	RemoveOnClose bool
	// Persist opts into write-pointer and generation persistence via a
	// superblock page appended past the data capacity: a cleanly closed
	// image reopens warm (write pointers and device.Generation restored), a
	// crashed or corrupted one cold-formats. Requires the superblock to fit
	// one page (44 + 4*Zones bytes ≤ PageSize). Pointless combined with
	// RemoveOnClose, but harmless.
	Persist bool
	// Clock overrides the device clock; nil takes a fresh real clock. Tests
	// may install a virtual clock to make `done` values deterministic —
	// I/O still happens, only the timestamps freeze.
	Clock *vtime.Clock
}

func (c Config) withDefaults() Config {
	if c.PageSize == 0 {
		c.PageSize = 4096
	}
	if c.PagesPerZone == 0 {
		c.PagesPerZone = 256
	}
	if c.Zones == 0 {
		c.Zones = 64
	}
	if c.Clock == nil {
		c.Clock = vtime.NewReal()
	}
	return c
}

type zone struct {
	mu sync.RWMutex
	wp int // next page offset to program within the zone
}

// Device is a file-backed zoned device. All methods are safe for concurrent
// use; operations on distinct zones proceed in parallel, and reads of the
// same zone proceed in parallel with each other.
type Device struct {
	cfg   Config
	clock *vtime.Clock
	f     *os.File

	zones []zone

	// Open-zone accounting: openCount tracks zones with 0 < wp <
	// PagesPerZone and is only touched on open/close transitions.
	openMu    sync.Mutex
	openCount int

	pagesWritten atomic.Uint64
	pagesRead    atomic.Uint64
	zoneResets   atomic.Uint64
	bytesWritten atomic.Uint64
	bytesRead    atomic.Uint64

	readFault  atomic.Pointer[func(page int) error]
	writeFault atomic.Pointer[func(zone int) error]

	// Generation stamp (see device.Generation): boot is fixed at Open —
	// restored from the superblock on a warm Persist open, freshly random
	// otherwise — and writes counts successful appends and resets since the
	// format boot identifies. metaOnce gates the one-time superblock
	// invalidation before the first mutation of this open; restored records
	// whether this open adopted a superblock.
	boot     uint64
	writes   atomic.Uint64
	metaOnce sync.Once
	restored bool

	// bufs pools page-sized transfer buffers: zero-padding short appends,
	// and (Direct mode) 4096-aligned bounce buffers for all transfers.
	bufs sync.Pool

	// mem is the read-only shared mapping of [0, CapacityBytes) that
	// buffered reads copy from (nil in Direct mode and off Linux). closed is
	// set, and mem unmapped, by Close while it holds every zone lock; a
	// reader checks closed under its zone's read lock.
	mem    []byte
	closed bool

	closeOnce sync.Once
	closeErr  error
}

// Device implements the zoned-device contract.
var _ device.Device = (*Device)(nil)

// Open creates (or reuses) the image file at cfg.Path, sizes it to the
// device capacity, and returns a formatted device: every zone's write
// pointer is zero regardless of prior contents — unless cfg.Persist is set
// and the image carries a valid superblock, in which case the write
// pointers and generation stamp of the last clean Close are restored.
func Open(cfg Config) (*Device, error) {
	cfg = cfg.withDefaults()
	if cfg.Path == "" {
		return nil, fmt.Errorf("filedev: empty image path")
	}
	if cfg.Zones <= 0 || cfg.PagesPerZone <= 0 || cfg.PageSize <= 0 {
		return nil, fmt.Errorf("filedev: invalid geometry %d zones x %d pages x %d bytes",
			cfg.Zones, cfg.PagesPerZone, cfg.PageSize)
	}
	if cfg.Persist && sbSize(cfg.Zones) > cfg.PageSize {
		return nil, fmt.Errorf("filedev: superblock for %d zones (%d bytes) does not fit a %d-byte page",
			cfg.Zones, sbSize(cfg.Zones), cfg.PageSize)
	}
	if cfg.Direct {
		if !directSupported {
			return nil, fmt.Errorf("filedev: O_DIRECT is not supported on this platform")
		}
		if cfg.PageSize%directAlign != 0 {
			return nil, fmt.Errorf("filedev: O_DIRECT requires PageSize to be a multiple of %d, got %d",
				directAlign, cfg.PageSize)
		}
	}
	flags := os.O_RDWR | os.O_CREATE
	if cfg.Direct {
		flags |= directFlag
	}
	f, err := os.OpenFile(cfg.Path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("filedev: open image: %w", err)
	}
	d := &Device{
		cfg:   cfg,
		clock: cfg.Clock,
		f:     f,
		zones: make([]zone, cfg.Zones),
	}
	d.bufs.New = func() any {
		if cfg.Direct {
			return alignedBuf(cfg.PageSize)
		}
		b := make([]byte, cfg.PageSize)
		return &b
	}
	// Size the image to full capacity up front so pwrites never extend the
	// file (Persist adds one superblock page past the capacity). Truncate
	// leaves holes where nothing was written — resets punch the zone back to
	// a hole, so a long-lived image stays as sparse as its live data.
	// Shrinking a formerly-Persist image back to bare capacity also destroys
	// its superblock, so mode changes can never resurrect stale pointers.
	size := d.CapacityBytes()
	if cfg.Persist {
		size += int64(cfg.PageSize)
	}
	if err := f.Truncate(size); err != nil {
		f.Close()
		return nil, fmt.Errorf("filedev: size image to %d bytes: %w", size, err)
	}
	if cfg.Persist {
		if err := d.loadOrFormatMeta(); err != nil {
			f.Close()
			return nil, err
		}
	} else {
		d.boot = randBoot()
	}
	if !cfg.Direct {
		if d.mem, err = mapImage(f, d.CapacityBytes()); err != nil {
			f.Close()
			return nil, fmt.Errorf("filedev: map image: %w", err)
		}
	}
	return d, nil
}

// Clock returns the device clock (real wall time unless overridden).
func (d *Device) Clock() *vtime.Clock { return d.clock }

// Config returns the effective configuration (defaults applied).
func (d *Device) Config() Config { return d.cfg }

// Path returns the image file location.
func (d *Device) Path() string { return d.cfg.Path }

// PageSize returns the page size in bytes.
func (d *Device) PageSize() int { return d.cfg.PageSize }

// PagesPerZone returns the zone size in pages.
func (d *Device) PagesPerZone() int { return d.cfg.PagesPerZone }

// Zones returns the number of zones.
func (d *Device) Zones() int { return d.cfg.Zones }

// TotalPages returns the device capacity in pages.
func (d *Device) TotalPages() int { return d.cfg.Zones * d.cfg.PagesPerZone }

// CapacityBytes returns the device capacity in bytes.
func (d *Device) CapacityBytes() int64 {
	return int64(d.TotalPages()) * int64(d.cfg.PageSize)
}

// ZoneOf returns the zone containing the global page index.
func (d *Device) ZoneOf(page int) int { return page / d.cfg.PagesPerZone }

// PageAddr returns the global page index of offset off within zoneID.
func (d *Device) PageAddr(zoneID, off int) int {
	return zoneID*d.cfg.PagesPerZone + off
}

// OffsetOf returns the intra-zone offset of the global page index.
func (d *Device) OffsetOf(page int) int { return page % d.cfg.PagesPerZone }

// MaxOpenZones returns the open-zone limit (0 = unlimited).
func (d *Device) MaxOpenZones() int { return d.cfg.MaxOpenZones }

// byteOff returns the file offset of the global page index.
func (d *Device) byteOff(page int) int64 {
	return int64(page) * int64(d.cfg.PageSize)
}

// Stats returns a snapshot of the device counters. Each counter is loaded
// atomically; under concurrent traffic the fields may straddle in-flight
// operations, but quiescent reads are exact.
func (d *Device) Stats() device.Stats {
	return device.Stats{
		PagesWritten: d.pagesWritten.Load(),
		PagesRead:    d.pagesRead.Load(),
		ZoneResets:   d.zoneResets.Load(),
		BytesWritten: d.bytesWritten.Load(),
		BytesRead:    d.bytesRead.Load(),
	}
}

// Generation returns the device mutation stamp (see device.Generation).
// Boot is restored from the superblock on a warm Persist open and freshly
// random on every other open; Writes counts successful appends and resets.
func (d *Device) Generation() device.Generation {
	return device.Generation{Boot: d.boot, Writes: d.writes.Load()}
}

// Restored reports whether this open adopted a valid superblock (warm
// open). Always false without Config.Persist.
func (d *Device) Restored() bool { return d.restored }

// SetReadFault installs a hook invoked with the global page index on every
// ReadPage, before any I/O and outside zone locks; a non-nil return aborts
// the read with that error. The hook may block to hold a read mid-flight
// without stalling other zones. Pass nil to disable.
func (d *Device) SetReadFault(f func(page int) error) {
	if f == nil {
		d.readFault.Store(nil)
		return
	}
	d.readFault.Store(&f)
}

// SetWriteFault is SetReadFault's append-side twin, invoked with the zone
// ID before any state changes and outside zone locks.
func (d *Device) SetWriteFault(f func(zone int) error) {
	if f == nil {
		d.writeFault.Store(nil)
		return
	}
	d.writeFault.Store(&f)
}

// ZoneWP returns the write pointer (pages written) of the zone.
func (d *Device) ZoneWP(zoneID int) int {
	z := &d.zones[zoneID]
	z.mu.RLock()
	defer z.mu.RUnlock()
	return z.wp
}

// ZoneFull reports whether the zone has no remaining writable pages.
func (d *Device) ZoneFull(zoneID int) bool {
	return d.ZoneWP(zoneID) >= d.cfg.PagesPerZone
}

// ZoneStateOf returns the zone's lifecycle state.
func (d *Device) ZoneStateOf(zoneID int) device.ZoneState {
	return device.StateOf(d, zoneID)
}

// OpenZones returns the number of partially written zones.
func (d *Device) OpenZones() int {
	d.openMu.Lock()
	defer d.openMu.Unlock()
	return d.openCount
}

// reserveOpen admits (or rejects) the 0→open transition of a zone against
// the configured open-zone limit.
func (d *Device) reserveOpen(zoneID int) error {
	d.openMu.Lock()
	defer d.openMu.Unlock()
	if d.cfg.MaxOpenZones > 0 && d.openCount >= d.cfg.MaxOpenZones {
		return fmt.Errorf("opening zone %d: %w (limit %d)", zoneID, device.ErrTooManyOpenZones, d.cfg.MaxOpenZones)
	}
	d.openCount++
	return nil
}

func (d *Device) releaseOpen() {
	d.openMu.Lock()
	d.openCount--
	d.openMu.Unlock()
}

// AppendPage programs one page at the zone's write pointer: a single pwrite
// of a full page at zone*pagesPerZone*pageSize + wp*pageSize. data longer
// than a page is an error; shorter data is zero-padded to the full page
// before the pwrite (stale file bytes can never ride along) and the full
// page is counted as written. It returns the global page index and the
// wall-clock completion time. Appends to the same zone serialize on the
// zone's lock; appends to distinct zones run in parallel.
func (d *Device) AppendPage(zoneID int, data []byte) (page int, done time.Duration, err error) {
	if zoneID < 0 || zoneID >= d.cfg.Zones {
		return 0, 0, fmt.Errorf("filedev: zone %d out of range [0,%d)", zoneID, d.cfg.Zones)
	}
	if len(data) > d.cfg.PageSize {
		return 0, 0, fmt.Errorf("filedev: write of %d bytes exceeds page size %d", len(data), d.cfg.PageSize)
	}
	if f := d.writeFault.Load(); f != nil {
		if err := (*f)(zoneID); err != nil {
			return 0, 0, err
		}
	}
	d.invalidateMeta()
	z := &d.zones[zoneID]
	z.mu.Lock()
	defer z.mu.Unlock()
	if z.wp >= d.cfg.PagesPerZone {
		return 0, 0, fmt.Errorf("filedev: zone %d full", zoneID)
	}
	opened := false
	if z.wp == 0 {
		if err := d.reserveOpen(zoneID); err != nil {
			return 0, 0, err
		}
		opened = true
	}
	page = d.PageAddr(zoneID, z.wp)
	// Always transfer a full page. Short (or unaligned, in Direct mode)
	// payloads bounce through a pooled buffer with a zeroed tail.
	src := data
	if len(data) < d.cfg.PageSize || d.cfg.Direct {
		bp := d.bufs.Get().(*[]byte)
		buf := *bp
		n := copy(buf, data)
		clear(buf[n:])
		src = buf
		defer d.bufs.Put(bp)
	}
	if _, werr := d.f.WriteAt(src[:d.cfg.PageSize], d.byteOff(page)); werr != nil {
		if opened {
			d.releaseOpen()
		}
		return 0, 0, fmt.Errorf("filedev: write page %d: %w", page, werr)
	}
	z.wp++
	if z.wp == d.cfg.PagesPerZone {
		d.releaseOpen()
	}
	d.pagesWritten.Add(1)
	d.bytesWritten.Add(uint64(d.cfg.PageSize))
	d.writes.Add(1)
	return page, d.clock.Now(), nil
}

// Append programs len(data)/PageSize pages (rounding the tail up to a full
// page) sequentially into the zone. It returns the first global page index
// and the completion time of the last page.
func (d *Device) Append(zoneID int, data []byte) (firstPage int, done time.Duration, err error) {
	ps := d.cfg.PageSize
	if len(data) == 0 {
		return 0, d.clock.Now(), nil
	}
	first := -1
	for off := 0; off < len(data); off += ps {
		end := off + ps
		if end > len(data) {
			end = len(data)
		}
		page, t, err := d.AppendPage(zoneID, data[off:end])
		if err != nil {
			return 0, 0, err
		}
		if first < 0 {
			first = page
		}
		if t > done {
			done = t
		}
	}
	return first, done, nil
}

// ReadPage copies the page into dst (which must hold PageSize bytes) and
// returns the wall-clock completion time. Reading a page at or beyond its
// zone's write pointer yields zeroes without touching the disk — the
// write-pointer check, not file contents, is authoritative (matching
// deallocated-read behaviour and making reformat-on-open safe).
//
// The buffer-ownership contract is flashsim's: dst belongs to the caller,
// is filled synchronously before the call returns, and is never retained.
// The zone's read lock is held across the copy out of the mapping (or the
// pread), so reads of the same zone proceed in parallel while a concurrent
// append or ResetZone waits. A read after Close returns an error.
func (d *Device) ReadPage(page int, dst []byte) (done time.Duration, err error) {
	if page < 0 || page >= d.TotalPages() {
		return 0, fmt.Errorf("filedev: page %d out of range [0,%d)", page, d.TotalPages())
	}
	if len(dst) < d.cfg.PageSize {
		return 0, fmt.Errorf("filedev: read buffer %d smaller than page size %d", len(dst), d.cfg.PageSize)
	}
	if f := d.readFault.Load(); f != nil {
		if err := (*f)(page); err != nil {
			return 0, err
		}
	}
	z := &d.zones[d.ZoneOf(page)]
	off := d.OffsetOf(page)
	z.mu.RLock()
	switch {
	case d.closed:
		err = os.ErrClosed
	case off >= z.wp:
		clear(dst[:d.cfg.PageSize])
	case d.mem != nil:
		copy(dst[:d.cfg.PageSize], d.mem[d.byteOff(page):])
	case d.cfg.Direct:
		bp := d.bufs.Get().(*[]byte)
		buf := *bp
		_, err = d.f.ReadAt(buf[:d.cfg.PageSize], d.byteOff(page))
		if err == nil {
			copy(dst[:d.cfg.PageSize], buf)
		}
		d.bufs.Put(bp)
	default:
		_, err = d.f.ReadAt(dst[:d.cfg.PageSize], d.byteOff(page))
	}
	z.mu.RUnlock()
	if err != nil {
		return 0, fmt.Errorf("filedev: read page %d: %w", page, err)
	}
	d.pagesRead.Add(1)
	d.bytesRead.Add(uint64(d.cfg.PageSize))
	return d.clock.Now(), nil
}

// ReadPages reads every page into the matching dst buffer and returns the
// completion time of the last read. The ReadPage buffer-ownership contract
// applies to every dst. On error, buffers before the failing page have been
// filled and the rest are untouched; the error is the first one encountered
// in page order.
func (d *Device) ReadPages(pages []int, dst [][]byte) (done time.Duration, err error) {
	for i, p := range pages {
		t, err := d.ReadPage(p, dst[i])
		if err != nil {
			return 0, err
		}
		if t > done {
			done = t
		}
	}
	return done, nil
}

// ResetZone erases the zone, rewinding its write pointer, and returns the
// wall-clock completion time. The file range is best-effort hole-punched
// (Linux) to release the blocks; correctness never depends on it, because
// reads beyond the write pointer are zero-filled in software.
func (d *Device) ResetZone(zoneID int) (done time.Duration, err error) {
	if zoneID < 0 || zoneID >= d.cfg.Zones {
		return 0, fmt.Errorf("filedev: zone %d out of range [0,%d)", zoneID, d.cfg.Zones)
	}
	d.invalidateMeta()
	z := &d.zones[zoneID]
	z.mu.Lock()
	if z.wp > 0 && z.wp < d.cfg.PagesPerZone {
		d.releaseOpen()
	}
	z.wp = 0
	punchHole(d.f, d.byteOff(d.PageAddr(zoneID, 0)), int64(d.cfg.PagesPerZone)*int64(d.cfg.PageSize))
	z.mu.Unlock()
	d.zoneResets.Add(1)
	d.writes.Add(1)
	return d.clock.Now(), nil
}

// Close unmaps the image, releases the file descriptor and, when
// Config.RemoveOnClose is set, deletes the image. In Persist mode (and not
// RemoveOnClose) it first rewrites and syncs the superblock, making the
// image warm-openable. Safe to call more than once; later calls return the
// first result. Engines never close their device — whoever opened it does.
func (d *Device) Close() error {
	d.closeOnce.Do(func() {
		if d.cfg.Persist && !d.cfg.RemoveOnClose {
			d.closeErr = d.flushMeta()
		}
		// Every zone lock, so no reader is mid-copy when the mapping goes.
		for i := range d.zones {
			d.zones[i].mu.Lock()
		}
		d.closed = true
		if d.mem != nil {
			if uerr := unmapImage(d.mem); uerr != nil && d.closeErr == nil {
				d.closeErr = uerr
			}
			d.mem = nil
		}
		for i := range d.zones {
			d.zones[i].mu.Unlock()
		}
		if cerr := d.f.Close(); cerr != nil && d.closeErr == nil {
			d.closeErr = cerr
		}
		if d.cfg.RemoveOnClose {
			if rerr := os.Remove(d.cfg.Path); rerr != nil && d.closeErr == nil {
				d.closeErr = rerr
			}
		}
	})
	return d.closeErr
}
