package des

import (
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"strconv"
	"testing"
)

// refRNG is an RNG drawing from math/rand's own source: the reference
// every lazily seeded RNG must match draw for draw.
func refRNG(seed int64) *RNG {
	g := new(RNG)
	g.r = *rand.New(rand.NewSource(seed))
	return g
}

// rngMethods is every draw method of RNG, each reduced to comparable bits.
var rngMethods = []struct {
	name string
	draw func(*RNG) uint64
}{
	{"Float64", func(g *RNG) uint64 { return math.Float64bits(g.Float64()) }},
	{"Intn(7)", func(g *RNG) uint64 { return uint64(g.Intn(7)) }},
	{"Intn(2^20)", func(g *RNG) uint64 { return uint64(g.Intn(1 << 20)) }},
	{"Intn(2^40+3)", func(g *RNG) uint64 { return uint64(g.Intn(1<<40 + 3)) }},
	{"Exp", func(g *RNG) uint64 { return math.Float64bits(g.Exp(3.5)) }},
	{"ExpTime", func(g *RNG) uint64 { return math.Float64bits(float64(g.ExpTime(1000))) }},
	{"Geometric", func(g *RNG) uint64 { return uint64(g.Geometric(8)) }},
}

var identitySeeds = []int64{
	0, 1, -1, 89482311, lcgMod, -lcgMod, lcgMod - 1, 1 << 31, -(1 << 31),
	3 * lcgMod, -5 * lcgMod, 1 << 30 * lcgMod, math.MinInt64, math.MaxInt64,
}

func TestRNGMatchesMathRand(t *testing.T) {
	counts := []int{lazyDraws - 1, lazyDraws, lazyDraws + 1, 273, 274, 607, 2000}
	for _, seed := range identitySeeds {
		for _, m := range rngMethods {
			for _, n := range counts {
				g, ref := NewRNG(seed), refRNG(seed)
				for i := 0; i < n; i++ {
					if got, want := m.draw(g), m.draw(ref); got != want {
						t.Fatalf("seed %d %s draw %d/%d: got %#x, want %#x", seed, m.name, i, n, got, want)
					}
				}
			}
		}
	}
}

// TestSourceMatchesMathRandOnManySeeds walks 2011 seeds spread over the
// whole int64 range through 1500 raw draws each, past the lazy bound,
// the first re-read of a written entry (draw 274) and a full lap of the
// state (draw 607).
func TestSourceMatchesMathRandOnManySeeds(t *testing.T) {
	seed := int64(0x9e3779b97f4a7c15 >> 1)
	for k := 0; k < 2011; k++ {
		seed = seed*6364136223846793005 + 1442695040888963407
		var s lazySource
		s.Seed(seed)
		ref := rand.NewSource(seed).(rand.Source64)
		for i := 0; i < 1500; i++ {
			if got, want := s.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: got %#x, want %#x", seed, i, got, want)
			}
		}
	}
}

// TestSourceReseed pins Seed on a source that has already built its
// state: it must restart the stream from scratch.
func TestSourceReseed(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 2*rngLen; i++ {
		g.Float64()
	}
	g.r.Seed(11)
	ref := refRNG(11)
	for i := 0; i < 2*rngLen; i++ {
		if got, want := g.r.Uint64(), ref.r.Uint64(); got != want {
			t.Fatalf("draw %d after reseed: got %#x, want %#x", i, got, want)
		}
	}
}

// FuzzRNGMatchesMathRand drives a lazily seeded RNG and math/rand's own
// source through the same sequence of draws and reseeds, one op a byte.
func FuzzRNGMatchesMathRand(f *testing.F) {
	f.Add(int64(0), []byte{0, 1, 2, 3, 4, 5})
	f.Add(int64(-lcgMod), []byte{6, 6, 6, 0, 14, 6, 255, 7, 1})
	f.Add(int64(math.MinInt64), []byte{30, 30, 30, 30, 30, 30, 30, 30, 30, 0, 3, 4})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		g, ref := NewRNG(seed), refRNG(seed)
		for i, op := range ops {
			var got, want uint64
			switch op % 8 {
			case 0, 1, 2, 3, 4:
				m := rngMethods[int(op/8)%len(rngMethods)]
				got, want = m.draw(g), m.draw(ref)
			case 5:
				got, want = g.r.Uint64(), ref.r.Uint64()
			case 6: // a run of raw draws, to reach the lazy bound and a lap quickly
				for j := 0; j < int(op); j++ {
					if got, want = uint64(g.r.Int63()), uint64(ref.r.Int63()); got != want {
						break
					}
				}
			case 7:
				s := seed ^ int64(op)<<32 + int64(i)
				g.r.Seed(s)
				ref.r.Seed(s)
			}
			if got != want {
				t.Fatalf("seed %d op %d (%d): got %#x, want %#x", seed, i, op, got, want)
			}
		}
	})
}

func fnvSum(name string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(name))
	return h.Sum64()
}

func TestStreamHashMatchesFNV(t *testing.T) {
	for _, name := range []string{"", "arrivals", "sched", "fault-loss", "ünïcødé-流-🚀", "\xff\x00\x80"} {
		if got, want := fnv1a(fnvOffset64, name), fnvSum(name); got != want {
			t.Errorf("fnv1a(%q) = %#x, want %#x", name, got, want)
		}
	}
	check := func(i int) {
		if got, want := arrivalsHash(i), fnvSum("arrivals-"+strconv.Itoa(i)); got != want {
			t.Fatalf("arrivalsHash(%d) = %#x, want %#x", i, got, want)
		}
	}
	for i := 0; i <= 10; i++ {
		check(i)
	}
	for i := 11; i <= 1_000_000; i += 997 {
		check(i)
	}
	for _, i := range []int{99, 100, 65535, 1_000_000, -1, -12345, math.MaxInt64, math.MinInt64} {
		check(i)
	}
}

func TestArrivalStreamIsNamedStream(t *testing.T) {
	for _, i := range []int{0, 7, 63, 64, 99_999} {
		a, b := ArrivalStream(42, i), Stream(42, "arrivals-"+strconv.Itoa(i))
		for d := 0; d < 10; d++ {
			if x, y := a.Float64(), b.Float64(); x != y {
				t.Fatalf("stream %d draw %d: %v != %v", i, d, x, y)
			}
		}
	}
}

var sinkRNG *RNG

// TestStreamCostPinned pins the per-stream cost a run pays to declare a
// stream and draw its first arrival: a substream plus one Exp stays
// within two objects and 128 bytes, however many streams a run declares.
func TestStreamCostPinned(t *testing.T) {
	ctors := map[string]func(i int) *RNG{
		"Stream":        func(i int) *RNG { return Stream(int64(i), "arrivals-17") },
		"ArrivalStream": func(i int) *RNG { return ArrivalStream(1, i) },
	}
	for name, ctor := range ctors {
		i := 0
		draw := func() {
			i++
			sinkRNG = ctor(i)
			sinkRNG.Exp(1)
		}
		if allocs := testing.AllocsPerRun(100, draw); allocs > 2 {
			t.Errorf("%s+Exp: %.0f allocs, want ≤ 2", name, allocs)
		}
		const n = 1000
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for k := 0; k < n; k++ {
			draw()
		}
		runtime.ReadMemStats(&m1)
		if b := float64(m1.TotalAlloc-m0.TotalAlloc) / n; b > 128 {
			t.Errorf("%s+Exp: %.0f B per stream, want ≤ 128", name, b)
		}
	}
}
