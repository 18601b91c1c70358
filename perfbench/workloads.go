package main

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"nemo/internal/core"
	"nemo/internal/trace"
)

// workload is one named traffic mix. rate is the traced run's open-loop
// offered load over all connections, about a tenth of the closed-loop peak
// on a 2-vCPU host: low enough that the open loop stays below its knee
// while the host is slowed (README.md, "Load").
type workload struct {
	name      string
	rate      float64
	lookaside bool // GET, and SET the value on a miss
	guard     bool // setup must leave a sealed PBFG group in every shard

	// keys returns the measured ids' bound, the size of the delete oracle's
	// bitmap (0 = not bounded).
	keys func(g geometry) uint64
	// classes returns the key sizes, one per key class.
	classes func() []int
	// gen builds connection conn's generator.
	gen func(ks *keySpace, g geometry, seed int64, conn int) (generator, error)
	// setup fills the engine in-process, advancing gens where the measured
	// traffic continues the warm-up trace.
	setup func(s *stack, ks *keySpace, gens []generator) error
}

var workloads = []workload{
	{
		name:      "lookaside-zipf",
		rate:      5000,
		lookaside: true,
		guard:     true,
		keys:      func(geometry) uint64 { return 0 },
		classes:   zipfKeySizes,
		gen: func(ks *keySpace, g geometry, seed int64, conn int) (generator, error) {
			// Working set ≈3× the cache, sized as -compare sizes it and
			// split evenly over the connections' streams.
			return newZipfGen(ks, seed, conn, g.capacityBytes()*3/4/int64(ks.conns))
		},
		setup: warmLookaside,
	},
	{
		name:    "hot-get",
		rate:    3000,
		guard:   true,
		keys:    hotKeys,
		classes: uniformClasses,
		gen: func(ks *keySpace, g geometry, seed int64, conn int) (generator, error) {
			return newMixGen(ks, seed, conn, hotKeys(g), maxKeys, 0.02, 0), nil
		},
		setup: prefillHot,
	},
	{
		name:    "set-churn",
		rate:    6000,
		keys:    churnKeys,
		classes: uniformClasses,
		gen: func(ks *keySpace, g geometry, seed int64, conn int) (generator, error) {
			return newMixGen(ks, seed, conn, churnKeys(g), 1, 0.85, 0.05), nil
		},
		setup: prefillChurn,
	},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("perfbench: unknown workload %q", name)
}

func uniformClasses() []int { return []int{uniformKeySize} }

// hotKeys sizes hot-get's working set at ≈0.6× the cache.
func hotKeys(g geometry) uint64 { return g.capKeys(g.capacityBytes() * 6 / 10 / uniformMeanObject) }

// churnKeys sizes set-churn's key space at 3× the cache (the setbench sizing).
func churnKeys(g geometry) uint64 { return g.capKeys(g.capacityBytes() * 3 / uniformMeanObject) }

func (g geometry) capKeys(n int64) uint64 {
	if g.keyCap > 0 {
		return min(uint64(n), g.keyCap)
	}
	return uint64(n)
}

// setupLimit bounds any setup loop, in objects (or look-aside requests per
// connection) per cache-capacity of objects: several times what a setup
// needs, so one that has not converged by then never will, and a run still
// ends within minutes.
const setupLimit = 25

func poolObjects(g geometry) int { return int(g.capacityBytes() / uniformMeanObject) }

// warmLookaside replays the look-aside trace in-process — GET, and on a
// miss SET the value — until every shard's SG pool has turned over once.
// Each connection's generator is replayed on its own goroutine, as the
// connections will continue it.
func warmLookaside(s *stack, ks *keySpace, gens []generator) error {
	target := uint64(s.geo.zonesPerShard)
	limit := setupLimit * poolObjects(s.geo)
	var done atomic.Bool
	errs := make([]error, len(gens))
	var wg sync.WaitGroup
	for g := range gens {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			l := s.loader(ks)
			const batch = 32
			var r request
			var refs [batch]keyRef
			var bufs [batch]trace.Request
			keys := make([][]byte, batch)
			for i := 0; !done.Load(); i += batch {
				if i%4096 == 0 && g == 0 {
					if minOf(s.flushedPerShard()) >= target {
						done.Store(true)
						return
					}
					if i > limit {
						errs[g] = fmt.Errorf("perfbench: look-aside warm-up did not cycle the pool")
						done.Store(true)
						return
					}
				}
				for j := range refs {
					gens[g].next(&r)
					refs[j] = r.keys[0]
					keys[j] = ks.key(&bufs[j], refs[j])
				}
				_, hits := s.cache.GetMany(keys)
				for j, hit := range hits {
					if hit {
						continue
					}
					if err := l.put(keys[j], refs[j]); err != nil {
						errs[g] = err
						done.Store(true)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	return errors.Join(errs...)
}

// fillerBase starts the id range of setup-only filler keys, disjoint from
// every measured key.
const fillerBase = 1 << 40

// fillShards writes fresh filler objects to each shard until it has flushed
// target SGs.
func fillShards(l *loader, next *uint64, target uint64) error {
	s := l.s
	for round := 0; ; round++ {
		if err := s.cache.Drain(); err != nil {
			return err
		}
		flushed := s.flushedPerShard()
		if minOf(flushed) >= target {
			return nil
		}
		if round > setupLimit*s.geo.zonesPerShard {
			return fmt.Errorf("perfbench: filler did not reach %d SGs per shard", target)
		}
		for n := 0; n < 1024; {
			ref := keyRef{id: *next, vlen: uniformVlen(*next)}
			*next++
			key := l.key(ref)
			if flushed[s.cache.ShardOf(key)] >= target {
				continue
			}
			if err := l.put(key, ref); err != nil {
				return err
			}
			n++
		}
	}
}

// prefillHot places hot-get's working set in sealed index groups: filler
// until every shard has sealed its first group, the working set (≈0.6× of
// the pool, which lands inside the second group), then filler until the
// second group seals too. The pool then holds the working set whole.
func prefillHot(s *stack, ks *keySpace, _ []generator) error {
	width := uint64(core.DefaultSGsPerIndexGroup)
	l := s.loader(ks)
	next := uint64(fillerBase)
	if err := fillShards(l, &next, width); err != nil {
		return err
	}
	for id := uint64(0); id < hotKeys(s.geo); id++ {
		ref := keyRef{id: id, vlen: uniformVlen(id)}
		if err := l.put(l.key(ref), ref); err != nil {
			return err
		}
	}
	return fillShards(l, &next, 2*width)
}

// prefillChurn writes set-churn's key space in order until every shard's
// pool has turned over once.
func prefillChurn(s *stack, ks *keySpace, _ []generator) error {
	l := s.loader(ks)
	target := uint64(s.geo.zonesPerShard)
	n := churnKeys(s.geo)
	for i := uint64(0); ; i++ {
		if i%4096 == 0 {
			if err := s.cache.Drain(); err != nil {
				return err
			}
			if minOf(s.flushedPerShard()) >= target {
				return nil
			}
			if i > uint64(setupLimit*poolObjects(s.geo)) {
				return fmt.Errorf("perfbench: set-churn prefill did not cycle the pool")
			}
		}
		ref := keyRef{id: i % n, vlen: uniformVlen(i % n)}
		if err := l.put(l.key(ref), ref); err != nil {
			return err
		}
	}
}

func minOf(xs []uint64) uint64 {
	m := xs[0]
	for _, x := range xs[1:] {
		m = min(m, x)
	}
	return m
}
