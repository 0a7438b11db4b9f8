package des

import (
	"math"
	"math/rand"
	"strconv"
)

// RNG is a deterministic random stream. Independent streams for arrivals,
// service jitter, stream placement etc. keep variance-reduction intact:
// changing one consumer does not perturb another's draws.
//
// Its draws are exactly those of rand.New(rand.NewSource(seed)), but the
// source builds its state only once a stream draws more than lazyDraws
// times, so declaring many rarely-drawing streams stays cheap.
type RNG struct {
	r   rand.Rand
	src lazySource
}

// NewRNG returns a stream seeded with seed.
func NewRNG(seed int64) *RNG {
	g := new(RNG)
	g.src.Seed(seed)
	g.r = *rand.New(&g.src)
	return g
}

// FNV-1a, 64-bit (hash/fnv's New64a), computed inline so deriving a
// substream allocates nothing but the RNG.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnv1a[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Stream derives an independent named substream from a base seed. The
// derivation hashes the name so that adding streams never re-seeds
// existing ones.
func Stream(base int64, name string) *RNG {
	return NewRNG(base ^ int64(fnv1a(fnvOffset64, name)))
}

// arrivalsPrefix is the FNV-1a state after the "arrivals-" prefix.
var arrivalsPrefix = fnv1a(fnvOffset64, "arrivals-")

// ArrivalStream is Stream(base, "arrivals-<i>"): the substream every
// backend draws stream i's arrivals from.
func ArrivalStream(base int64, i int) *RNG { return NewRNG(base ^ int64(arrivalsHash(i))) }

// arrivalsHash is the FNV-1a hash of "arrivals-<i>", continued from the
// prefix's state over i's decimal digits without building the name.
func arrivalsHash(i int) uint64 {
	var digits [20]byte
	return fnv1a(arrivalsPrefix, strconv.AppendInt(digits[:0], int64(i), 10))
}

// Float64 returns a uniform draw in [0, 1).
func (g *RNG) Float64() float64 { return g.r.Float64() }

// Intn returns a uniform draw in [0, n).
func (g *RNG) Intn(n int) int { return g.r.Intn(n) }

// Exp returns an exponential draw with the given mean. A non-positive
// mean returns 0, which lets callers express "immediate" cleanly.
func (g *RNG) Exp(mean float64) float64 {
	if mean <= 0 {
		return 0
	}
	return g.r.ExpFloat64() * mean
}

// ExpTime returns an exponential Time with the given mean.
func (g *RNG) ExpTime(mean Time) Time { return Time(g.Exp(float64(mean))) }

// Geometric returns a draw from a geometric distribution with the given
// mean (support 1, 2, 3, …). Used for packet-train lengths and burst
// sizes: a train of mean length m ends after each packet with probability
// 1/m. A mean at or below 1 always returns 1.
func (g *RNG) Geometric(mean float64) int {
	if mean <= 1 {
		return 1
	}
	p := 1 / mean
	u := g.r.Float64()
	// Inverse transform: smallest k ≥ 1 with 1-(1-p)^k ≥ u.
	k := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if k < 1 {
		k = 1
	}
	return k
}
