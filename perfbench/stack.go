package main

import (
	"encoding/binary"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"syscall"
	"time"

	"nemo/internal/cachelib"
	"nemo/internal/core"
	"nemo/internal/device"
	"nemo/internal/filedev"
	"nemo/internal/server"
	"nemo/internal/setblock"
	"nemo/internal/trace"
)

// geometry is the engine under test. The 48-zone pool of -getbench,
// -setbench and -servebench gives each of 2 shards 24 SGs: below the 50-SG
// index group, so no PBFG group ever seals. 60 data zones per shard put every
// shard past one group, so sealed Bloom-filter pages are on the GET path.
type geometry struct {
	shards        int
	zonesPerShard int // data zones (= SGs) per shard
	pagesPerZone  int
	pageSize      int
	// keyCap, when nonzero, caps the measured key space (tests only: a
	// small key space makes every key recur within a short run).
	keyCap uint64
}

var defaultGeometry = geometry{shards: 2, zonesPerShard: 60, pagesPerZone: 64, pageSize: 4096}

func (g geometry) dataZones() int { return g.shards * g.zonesPerShard }

// capacityBytes is the SG pool: the cache size workloads are sized against.
func (g geometry) capacityBytes() int64 {
	return int64(g.dataZones()) * int64(g.pagesPerZone) * int64(g.pageSize)
}

func (g geometry) deviceZones() int {
	return g.shards * (g.zonesPerShard + core.IndexZonesFor(g.zonesPerShard, core.DefaultSGsPerIndexGroup))
}

// stack is the served system: a filedev image, core.Sharded over it, and
// internal/server on a loopback listener.
type stack struct {
	geo    geometry
	rawDev *filedev.Device
	cache  *core.Sharded
	srv    *server.Server
	ln     net.Listener
	served chan error
	fsType string

	// setupBytes is the key+value bytes the in-process setup stored.
	setupBytes atomic.Uint64
}

// stackOptions are the hooks a run may install between the layers.
type stackOptions struct {
	tr         *tracer                                   // non-nil: trace device and engine calls
	wrapEngine func(cachelib.EngineV2) cachelib.EngineV2 // tests: fault injection above the engine
}

// buildStack formats a fresh image in dir and builds the engine on it with
// nemoserve's defaults.
func buildStack(geo geometry, dir string, opt stackOptions) (*stack, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("perfbench: workdir: %w", err)
	}
	img := filepath.Join(dir, fmt.Sprintf("image-%d.img", os.Getpid()))
	raw, err := filedev.Open(filedev.Config{
		Path:          img,
		PageSize:      geo.pageSize,
		PagesPerZone:  geo.pagesPerZone,
		Zones:         geo.deviceZones(),
		RemoveOnClose: true,
	})
	if err != nil {
		return nil, err
	}
	s := &stack{geo: geo, rawDev: raw, fsType: fsTypeOf(dir)}
	var dev device.Device = raw
	if opt.tr != nil {
		dev = &tracedDevice{Device: raw, tr: opt.tr}
	}
	cfg := core.DefaultConfig(dev, geo.dataZones())
	cfg.Shards = geo.shards
	cfg.Flushers = 2
	cfg.BreakerThreshold = 3
	cfg.BreakerProbeAfter = time.Second
	cfg.WriteRetries = 2
	cfg.RetryBackoff = 2 * time.Millisecond
	s.cache, err = core.NewSharded(cfg)
	if err != nil {
		raw.Close()
		return nil, err
	}
	var eng cachelib.EngineV2 = s.cache
	if opt.tr != nil {
		eng = &tracedEngine{EngineV2: eng, shardOf: s.cache.ShardOf, tr: opt.tr}
	}
	if opt.wrapEngine != nil {
		eng = opt.wrapEngine(eng)
	}
	s.srv, err = server.New(server.Config{
		Engine:       eng,
		MaxBatch:     64,
		MaxItemBytes: geo.pageSize - setblock.HeaderSize - setblock.EntryOverhead,
	})
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// loader writes objects into the engine in-process; one per goroutine.
type loader struct {
	s      *stack
	ks     *keySpace
	env    []byte
	kb, vb trace.Request
}

func (s *stack) loader(ks *keySpace) *loader { return &loader{s: s, ks: ks} }

// key renders ref's key.
func (l *loader) key(ref keyRef) []byte { return l.ks.key(&l.kb, ref) }

// put stores ref in the serving layer's documented item encoding (4-byte
// big-endian flags, then the data), so setup-written objects read back
// through the server exactly like served ones. key is ref's key.
func (l *loader) put(key []byte, ref keyRef) error {
	data := l.ks.value(&l.vb, ref)
	l.env = binary.BigEndian.AppendUint32(l.env[:0], flagsOf(ref.id))
	l.env = append(l.env, data...)
	if err := l.s.cache.SetAsync(key, l.env); err != nil {
		return err
	}
	l.s.setupBytes.Add(uint64(len(key) + len(data)))
	return nil
}

// flushedPerShard returns each shard's flushed-SG count.
func (s *stack) flushedPerShard() []uint64 {
	out := make([]uint64, s.cache.NumShards())
	for i := range out {
		out[i] = s.cache.Shard(i).Extra().SGsFlushed
	}
	return out
}

// checkSealedIndex fails unless every shard has written a sealed PBFG index
// group and a GET that misses in memory consults it.
func (s *stack) checkSealedIndex(ks *keySpace) error {
	var kb trace.Request
	for i := 0; i < s.cache.NumShards(); i++ {
		sh := s.cache.Shard(i)
		if sh.Extra().IndexBytesWritten == 0 {
			return fmt.Errorf("perfbench: shard %d has no sealed index group after setup (%d SGs flushed)",
				i, sh.Extra().SGsFlushed)
		}
		before, _, _ := sh.PBFGStats()
		// Probe with absent keys routed to this shard; each consults every
		// live sealed group's PBFG page.
		probed := false
		for id := uint64(1 << 62); id < 1<<62+4096 && !probed; id++ {
			key := ks.key(&kb, keyRef{id: id})
			if s.cache.ShardOf(key) != i {
				continue
			}
			s.cache.Get(key)
			after, _, _ := sh.PBFGStats()
			if after == before {
				return fmt.Errorf("perfbench: shard %d: a GET miss made no PBFG lookup", i)
			}
			probed = true
		}
		if !probed {
			return fmt.Errorf("perfbench: no probe key routes to shard %d", i)
		}
	}
	return nil
}

// serve starts the server on a loopback listener.
func (s *stack) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	s.ln = ln
	s.served = make(chan error, 1)
	go func() { s.served <- s.srv.Serve(ln) }()
	return nil
}

// shutdown drains the server and engine, checks that the device and the
// engine agree on the bytes written, and releases everything. It returns
// the device's counters after the drain.
func (s *stack) shutdown() (device.Stats, error) {
	err := s.srv.Shutdown()
	if s.served != nil {
		if serr := <-s.served; serr != server.ErrServerClosed && err == nil {
			err = serr
		}
		s.served = nil
	}
	dev := s.rawDev.Stats()
	if err == nil {
		if e := s.cache.Stats().FlashBytesWritten; dev.BytesWritten != e {
			err = &oracleError{fmt.Sprintf("device wrote %d bytes but the engine accounts %d", dev.BytesWritten, e)}
		}
	}
	if cerr := s.close(); err == nil {
		err = cerr
	}
	return dev, err
}

func (s *stack) close() error {
	var err error
	if s.cache != nil {
		err = s.cache.Close()
		s.cache = nil
	}
	if cerr := s.rawDev.Close(); err == nil {
		err = cerr
	}
	return err
}

// fsTypeOf names the filesystem holding dir.
func fsTypeOf(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint64(st.Type) {
	case 0xef53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683e:
		return "btrfs"
	case 0x65735546:
		return "fuse"
	case 0x6a656a63:
		return "virtiofs"
	}
	return fmt.Sprintf("0x%x", uint64(st.Type))
}
