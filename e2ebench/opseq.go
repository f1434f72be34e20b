package main

import (
	"math/rand"
	"strconv"

	"repro/internal/dataset"
)

// opKind is one kind of server-mix request.
type opKind int

const (
	opMineHit opKind = iota
	opMineCold
	opPatchMine
	opColocate
	numKinds
)

var kindNames = [numKinds]string{"mine_hit", "mine_cold", "patch_mine", "colocate"}

func (k opKind) String() string { return kindNames[k] }

// roundMix is one client round: 50% mine_hit, 20% mine_cold, 20%
// patch_mine, 10% colocate. Each round is a seeded shuffle of it, so
// every round holds the mix exactly.
var roundMix = []opKind{
	opMineHit, opMineHit, opMineHit, opMineHit, opMineHit,
	opMineCold, opMineCold,
	opPatchMine, opPatchMine,
	opColocate,
}

// opSequence is one client's fixed op sequence for a seed.
type opSequence struct {
	rng *rand.Rand
}

func newOpSequence(seed int64, client int) *opSequence {
	return &opSequence{rng: rand.New(rand.NewSource(seed*1_000_003 + int64(client)))}
}

// nextRound returns the next round's ten ops.
func (s *opSequence) nextRound() []opKind {
	r := append([]opKind(nil), roundMix...)
	s.rng.Shuffle(len(r), func(i, j int) { r[i], r[j] = r[j], r[i] })
	return r
}

// Per-request parameters that make every mine_cold and colocate request
// one the server has never seen: the k-th request of a client gets a
// distinct minimum support or distance, so it always misses the result
// cache while doing the same work as its neighbours.
const (
	coldMinSupport = 0.05
	colocDistance  = 1.0
	colocMinPI     = 0.3
)

func coldSupport(client, k int) float64 {
	return coldMinSupport + float64(client*1_000_000+k+1)*1e-10
}

func colocDist(client, k int) float64 {
	return colocDistance + float64(client*1_000_000+k+1)*1e-7
}

// nudger produces one client's patch chain: the k-th PATCH moves one
// school of the base scene to a seeded point near its base position.
type nudger struct {
	rng     *rand.Rand
	schools []dataset.Feature
}

func newNudger(seed int64, client int, base *dataset.Dataset) *nudger {
	n := &nudger{rng: rand.New(rand.NewSource(seed*7_919 + int64(client) + 1))}
	for _, l := range base.Relevant {
		if l.Type == "school" {
			n.schools = l.Features
		}
	}
	return n
}

// next returns the next mutation op of the chain.
func (n *nudger) next() dataset.Op {
	f := n.schools[n.rng.Intn(len(n.schools))]
	c := f.Geometry.Envelope().Center()
	dx, dy := (n.rng.Float64()-0.5)*0.1, (n.rng.Float64()-0.5)*0.1
	wkt := "POINT (" + strconv.FormatFloat(c.X+dx, 'f', -1, 64) + " " + strconv.FormatFloat(c.Y+dy, 'f', -1, 64) + ")"
	return dataset.Op{Action: "update", Layer: "school", ID: f.ID, WKT: wkt}
}
