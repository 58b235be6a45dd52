// Package topology builds the multi-tier cell layout of the paper's
// Figure 3.1: upper-layer macro base stations (like R3) parent domain
// macro cells (R1, R2), which parent micro cells (A–F, optionally chained
// one below another), which parent pico cells. A *domain* is the subtree
// of one domain-level macro cell — the unit the paper's inter-domain
// handoff is defined over.
//
// The package is pure structure and geometry: which cells exist, where
// they are, who parents whom, and what address space each owns. Wiring
// cells to simulated network nodes is the scenario engine's job.
package topology

import (
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/simtime"
)

// Tier is the cell layer, ordered smallest to largest coverage.
type Tier int

// Tiers of the hierarchy. Root is the upper layer of the macro-tier (the
// paper's "most upper layer BS", R3 in Fig 3.2/3.3).
const (
	TierPico Tier = iota + 1
	TierMicro
	TierMacro
	TierRoot
)

// String implements fmt.Stringer.
func (t Tier) String() string {
	switch t {
	case TierPico:
		return "pico"
	case TierMicro:
		return "micro"
	case TierMacro:
		return "macro"
	case TierRoot:
		return "root"
	default:
		return fmt.Sprintf("tier(%d)", int(t))
	}
}

// CellID indexes a cell within its topology.
type CellID int

// NoCell marks "no cell" (no parent, no coverage).
const NoCell CellID = -1

// Cell is one base station's coverage area and place in the hierarchy.
type Cell struct {
	ID       CellID
	Tier     Tier
	Pos      geo.Point
	Radio    radio.Params
	Parent   CellID
	Children []CellID
	// Domain is the domain-macro subtree this cell belongs to; NoDomain
	// for root cells, which sit above domains.
	Domain int
	// Prefix is the address space owned by this cell's base station.
	Prefix addr.Prefix
	// Name is a human-readable label like "macro-0.1" for traces.
	Name string
}

// NoDomain marks cells above the domain level.
const NoDomain = -1

// MeasureInRange returns the signal of c at p, exactly
// radio.MeasureAt(int(c.ID), c.Radio, c.Pos, p, rng), or false without
// computing an RSSI or drawing shadowing from rng when p lies beyond c's
// nominal range. The per-axis test drops most far cells before the
// hypot; it is exact because hypot(dx, dy) ≥ max(|dx|, |dy|).
//
//mmlint:noalloc
func (c *Cell) MeasureInRange(p geo.Point, rng *simtime.Rand) (radio.Signal, bool) {
	r := c.Radio.MaxRange
	dx, dy := c.Pos.X-p.X, c.Pos.Y-p.Y
	if math.Abs(dx) > r || math.Abs(dy) > r {
		return radio.Signal{}, false
	}
	d := math.Hypot(dx, dy)
	if !(d <= r) {
		return radio.Signal{}, false
	}
	return radio.Signal{Cell: int(c.ID), RSSIDBm: c.Radio.RSSI(d, rng), InRange: true}, true
}

// Domain groups the cells of one domain-macro subtree.
type Domain struct {
	ID    int
	Root  CellID // the domain-level macro cell
	Cells []CellID
}

// Config parameterises Build. The zero value is invalid; use
// DefaultConfig as a starting point.
type Config struct {
	// Roots is the number of upper-layer macro base stations.
	Roots int
	// RootCols, when > 0, lays the roots out in a grid of that many
	// columns (rows grow as needed) instead of the legacy single row.
	// Dimensioned arenas use this so a large root count stays roughly
	// square — a hundred roots in one row would make the spatial grid
	// degenerate and every Manhattan/waypoint trace one-dimensional.
	// 0, or any value >= Roots, reproduces the single-row layout.
	RootCols int
	// MacrosPerRoot is the number of domain macro cells under each root.
	MacrosPerRoot int
	// MicrosPerMacro is the number of micro cells per domain.
	MicrosPerMacro int
	// ChainMicros makes every second micro cell a child of the previous
	// micro instead of the macro, reproducing Fig 3.1's A→B,C chains
	// ("micro-cells … distinguished on more than one levels").
	ChainMicros bool
	// PicosPerMicro is the number of pico cells per micro cell.
	PicosPerMicro int
	// BasePrefix is the address space carved among domains and cells.
	// Must be /8 or wider.
	BasePrefix addr.Prefix
	// RootRadio, MacroRadio, MicroRadio, PicoRadio override the
	// per-tier radio parameters; zero values take the radio package
	// presets (with the root preset being a boosted macro).
	RootRadio, MacroRadio, MicroRadio, PicoRadio radio.Params
}

// DefaultConfig is a two-root, two-domain-per-root layout exercising every
// handoff class: micro↔micro, micro↔macro, inter-domain same-root and
// inter-domain different-root.
func DefaultConfig() Config {
	return Config{
		Roots:          2,
		MacrosPerRoot:  2,
		MicrosPerMacro: 3,
		ChainMicros:    true,
		PicosPerMicro:  1,
		BasePrefix:     addr.MustParsePrefix("10.0.0.0/8"),
	}
}

// CellCount returns the number of cells Build would create for the
// config — pure arithmetic, so planners and tables can report topology
// sizes without building anything.
func (c Config) CellCount() int {
	return c.Roots * (1 + c.MacrosPerRoot*(1+c.MicrosPerMacro*(1+c.PicosPerMicro)))
}

// RootParams is the radio preset for upper-layer macro base stations: a
// boosted macro covering the whole cluster of domains beneath it.
func RootParams() radio.Params {
	p := radio.MacroParams()
	p.TxPowerDBm += 3
	p.MaxRange = 12000
	p.Exponent = 2.6
	p.AirDelay = 12 * time.Millisecond
	return p
}

// Errors returned by Build.
var (
	ErrBadConfig = errors.New("topology: invalid config")
)

// Topology is the built cell structure.
type Topology struct {
	Cells   []*Cell
	Domains []Domain
	Arena   geo.Rect
	cfg     Config
	grid    gridIndex
}

// gridIndex is a uniform spatial hash over cell coverage discs: every
// grid bucket memoizes, at Build time, exactly the cells whose coverage
// disc overlaps the bucket's rectangle, so the single bucket containing a
// query point holds a tight superset of the cells whose nominal range can
// reach that point. Lookups are O(1) plus the (local) bucket length
// instead of O(all cells), and the per-bucket candidate lists are
// computed once — 10k MNs sharing a bucket re-read one cached slice per
// tick instead of re-deriving overlap sets.
//
// Bucket side is max(100 m, largestRange/16): fine enough that a bucket
// holds only the local neighbourhood of small cells, coarse enough that
// even the largest (root) disc touches a bounded ~33x33 block of buckets
// at build time.
type gridIndex struct {
	cell       float64
	minX, minY float64
	cols, rows int
	buckets    [][]CellID // ascending CellID per bucket (build order)
}

// buildGrid indexes every cell. Called once at Build time, after the
// arena is known; Nearby stays a pure reader of the memoized lists.
//
// Insertion runs in two passes: the bounding square [Pos±MaxRange] picks
// the candidate bucket block, then the exact disc-rectangle overlap test
// prunes the block's corners (for a large disc, ~21% of its bounding
// square lies outside the disc — corner buckets would carry cells no
// point inside them can ever reach).
func (t *Topology) buildGrid() {
	maxR := 0.0
	for _, c := range t.Cells {
		if c.Radio.MaxRange > maxR {
			maxR = c.Radio.MaxRange
		}
	}
	cs := maxR / 16
	if cs < 100 {
		cs = 100
	}
	g := &t.grid
	g.cell = cs
	g.minX, g.minY = t.Arena.Min.X, t.Arena.Min.Y
	g.cols = int((t.Arena.Max.X-t.Arena.Min.X)/cs) + 1
	g.rows = int((t.Arena.Max.Y-t.Arena.Min.Y)/cs) + 1
	g.buckets = make([][]CellID, g.cols*g.rows)
	for _, c := range t.Cells { // ascending ID ⇒ buckets stay sorted
		r := c.Radio.MaxRange
		// One extra bucket per side: a bucket rectangle can touch the
		// disc at exactly distance r while its index sits just outside
		// the bounding square (cells land on exact bucket boundaries).
		// The overlap test prunes the false candidates.
		x0, y0 := g.clampCol(c.Pos.X-r-g.cell), g.clampRow(c.Pos.Y-r-g.cell)
		x1, y1 := g.clampCol(c.Pos.X+r+g.cell), g.clampRow(c.Pos.Y+r+g.cell)
		for y := y0; y <= y1; y++ {
			for x := x0; x <= x1; x++ {
				if !g.discOverlapsBucket(c.Pos, r, x, y) {
					continue
				}
				i := y*g.cols + x
				g.buckets[i] = append(g.buckets[i], c.ID)
			}
		}
	}
}

// discOverlapsBucket reports whether a coverage disc centred at p with
// radius r reaches any point of bucket (x, y): the distance from p to the
// nearest point of the bucket rectangle is at most r. This is the exact
// membership rule the per-bucket candidate cache is built from (and the
// rule tests recompute to validate the cache).
func (g *gridIndex) discOverlapsBucket(p geo.Point, r float64, x, y int) bool {
	x0 := g.minX + float64(x)*g.cell
	y0 := g.minY + float64(y)*g.cell
	nx := math.Max(x0, math.Min(p.X, x0+g.cell))
	ny := math.Max(y0, math.Min(p.Y, y0+g.cell))
	dx, dy := p.X-nx, p.Y-ny
	return dx*dx+dy*dy <= r*r
}

func (g *gridIndex) clampCol(x float64) int {
	c := int((x - g.minX) / g.cell)
	if c < 0 {
		c = 0
	}
	if c >= g.cols {
		c = g.cols - 1
	}
	return c
}

func (g *gridIndex) clampRow(y float64) int {
	r := int((y - g.minY) / g.cell)
	if r < 0 {
		r = 0
	}
	if r >= g.rows {
		r = g.rows - 1
	}
	return r
}

// Nearby returns the ids of every cell whose nominal coverage could reach
// p: a superset of the in-range set (exactly the cells whose coverage
// disc overlaps p's grid bucket), in ascending id order. Points outside
// the arena (which bounds every coverage disc) return nil. The returned
// slice aliases the memoized per-bucket candidate cache — callers must
// not mutate or retain it.
func (t *Topology) Nearby(p geo.Point) []CellID {
	// The candidate lists are built once in Build; Nearby stays a pure
	// reader so a Topology can safely be shared across goroutines after
	// Build — including the parallel measurement workers.
	if p.X < t.Arena.Min.X || p.X > t.Arena.Max.X || p.Y < t.Arena.Min.Y || p.Y > t.Arena.Max.Y {
		return nil
	}
	g := &t.grid
	return g.buckets[g.clampRow(p.Y)*g.cols+g.clampCol(p.X)]
}

// Build constructs the hierarchy, placing roots in a row, domain macros in
// a ring inside each root, micros in a ring inside each macro (chained
// micros adjacent to their parent micro), and picos inside micros.
func Build(cfg Config) (*Topology, error) {
	if cfg.Roots < 1 || cfg.MacrosPerRoot < 1 || cfg.MicrosPerMacro < 0 || cfg.PicosPerMicro < 0 {
		return nil, fmt.Errorf("%w: counts must be positive (roots=%d macros=%d)", ErrBadConfig, cfg.Roots, cfg.MacrosPerRoot)
	}
	if cfg.BasePrefix.Bits > 8 {
		return nil, fmt.Errorf("%w: base prefix %s narrower than /8", ErrBadConfig, cfg.BasePrefix)
	}
	rootRadio := cfg.RootRadio
	if rootRadio.MaxRange == 0 {
		rootRadio = RootParams()
	}
	macroRadio := cfg.MacroRadio
	if macroRadio.MaxRange == 0 {
		macroRadio = radio.MacroParams()
	}
	microRadio := cfg.MicroRadio
	if microRadio.MaxRange == 0 {
		microRadio = radio.MicroParams()
	}
	picoRadio := cfg.PicoRadio
	if picoRadio.MaxRange == 0 {
		picoRadio = radio.PicoParams()
	}

	t := &Topology{cfg: cfg}
	domainID := 0

	// Roots sit in a row — or, with RootCols set, in a grid — overlapping
	// slightly so inter-root handoff is geometrically possible. A full
	// single row is the RootCols >= Roots degenerate grid, so the legacy
	// layout is the cols=Roots special case of the same arithmetic.
	cols := cfg.RootCols
	if cols <= 0 || cols > cfg.Roots {
		cols = cfg.Roots
	}
	rootGap := rootRadio.MaxRange * 1.5
	for r := 0; r < cfg.Roots; r++ {
		col, row := r%cols, r/cols
		rootPos := geo.Pt(rootRadio.MaxRange+float64(col)*rootGap,
			rootRadio.MaxRange+float64(row)*rootGap)
		root := t.addCell(TierRoot, rootPos, rootRadio, NoCell, NoDomain, fmt.Sprintf("root-%d", r))

		// Domain macros in a ring around the root centre. With a single
		// macro it sits at the centre.
		for m := 0; m < cfg.MacrosPerRoot; m++ {
			macroPos := rootPos
			if cfg.MacrosPerRoot > 1 {
				ang := 2 * math.Pi * float64(m) / float64(cfg.MacrosPerRoot)
				ringR := macroRadio.MaxRange * 0.9
				macroPos = rootPos.Add(geo.FromHeading(ang, ringR))
			}
			macro := t.addCell(TierMacro, macroPos, macroRadio, root.ID, domainID,
				fmt.Sprintf("macro-%d.%d", r, m))
			dom := Domain{ID: domainID, Root: macro.ID}
			dom.Cells = append(dom.Cells, macro.ID)

			// Micros in a ring inside the macro. When chaining, odd
			// micros hang off the preceding even micro.
			var prevMicro *Cell
			for mi := 0; mi < cfg.MicrosPerMacro; mi++ {
				parent := macro
				chained := cfg.ChainMicros && mi%2 == 1 && prevMicro != nil
				var microPos geo.Point
				if chained {
					parent = prevMicro
					// Adjacent to the parent micro, overlapping it.
					microPos = prevMicro.Pos.Add(geo.Vec(microRadio.MaxRange*1.2, 0))
				} else {
					ang := 2 * math.Pi * float64(mi) / float64(maxInt(cfg.MicrosPerMacro, 1))
					ringR := macroRadio.MaxRange * 0.45
					microPos = macroPos.Add(geo.FromHeading(ang, ringR))
				}
				micro := t.addCell(TierMicro, microPos, microRadio, parent.ID, domainID,
					fmt.Sprintf("micro-%d.%d.%d", r, m, mi))
				dom.Cells = append(dom.Cells, micro.ID)
				if !chained {
					prevMicro = micro
				}

				for pi := 0; pi < cfg.PicosPerMicro; pi++ {
					ang := 2 * math.Pi * float64(pi) / float64(maxInt(cfg.PicosPerMicro, 1))
					picoPos := microPos.Add(geo.FromHeading(ang, microRadio.MaxRange*0.4))
					pico := t.addCell(TierPico, picoPos, picoRadio, micro.ID, domainID,
						fmt.Sprintf("pico-%d.%d.%d.%d", r, m, mi, pi))
					dom.Cells = append(dom.Cells, pico.ID)
				}
			}
			t.Domains = append(t.Domains, dom)
			domainID++
		}
	}

	if err := t.assignPrefixes(); err != nil {
		return nil, err
	}
	t.computeArena()
	t.buildGrid()
	return t, nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func (t *Topology) addCell(tier Tier, pos geo.Point, rp radio.Params, parent CellID, domain int, name string) *Cell {
	c := &Cell{
		ID:     CellID(len(t.Cells)),
		Tier:   tier,
		Pos:    pos,
		Radio:  rp,
		Parent: parent,
		Domain: domain,
		Name:   name,
	}
	t.Cells = append(t.Cells, c)
	if parent != NoCell {
		p := t.Cells[parent]
		p.Children = append(p.Children, c.ID)
	}
	return c
}

// assignPrefixes gives each domain a /16 of the base prefix and each cell
// a /24 inside its domain; root cells take /16s after the domains.
func (t *Topology) assignPrefixes() error {
	next16 := 0
	for di := range t.Domains {
		dom := &t.Domains[di]
		domPrefix, err := t.cfg.BasePrefix.Subnet(16, next16)
		next16++
		if err != nil {
			return fmt.Errorf("domain %d prefix: %w", dom.ID, err)
		}
		for i, cid := range dom.Cells {
			p, err := domPrefix.Subnet(24, i)
			if err != nil {
				return fmt.Errorf("cell %d prefix: %w", cid, err)
			}
			t.Cells[cid].Prefix = p
		}
	}
	for _, c := range t.Cells {
		if c.Tier != TierRoot {
			continue
		}
		p, err := t.cfg.BasePrefix.Subnet(16, next16)
		next16++
		if err != nil {
			return fmt.Errorf("root %d prefix: %w", c.ID, err)
		}
		c.Prefix = p
	}
	return nil
}

func (t *Topology) computeArena() {
	minP := geo.Pt(math.Inf(1), math.Inf(1))
	maxP := geo.Pt(math.Inf(-1), math.Inf(-1))
	for _, c := range t.Cells {
		r := c.Radio.MaxRange
		minP.X = math.Min(minP.X, c.Pos.X-r)
		minP.Y = math.Min(minP.Y, c.Pos.Y-r)
		maxP.X = math.Max(maxP.X, c.Pos.X+r)
		maxP.Y = math.Max(maxP.Y, c.Pos.Y+r)
	}
	t.Arena = geo.Rect{Min: minP, Max: maxP}
}

// Cell returns the cell by id, or nil when out of range.
func (t *Topology) Cell(id CellID) *Cell {
	if id < 0 || int(id) >= len(t.Cells) {
		return nil
	}
	return t.Cells[id]
}

// CellsOfTier returns all cells of one tier in id order.
func (t *Topology) CellsOfTier(tier Tier) []*Cell {
	var out []*Cell
	for _, c := range t.Cells {
		if c.Tier == tier {
			out = append(out, c)
		}
	}
	return out
}

// MeasureInto measures, into dst (reusing its capacity), every cell of
// tier minTier or above whose nominal range reaches p, in id order, and
// returns the filled slice. Each signal has InRange set and draws its
// shadowing from rng (nil rng = deterministic mean). The grid
// neighbourhood of p bounds the scan; a neighbour below minTier is
// dropped before any RSSI, and one out of range before its RSSI or any
// shadowing draw. An out-of-range cell can never be selected
// (Selector.Best and multitier's cell choice ignore out-of-range
// candidates, and an unmeasured incumbent behaves exactly like an
// out-of-range one), so the per-tick cost is O(nearby) instead of
// O(all cells).
func (t *Topology) MeasureInto(dst []radio.Signal, p geo.Point, rng *simtime.Rand, minTier Tier) []radio.Signal {
	dst = dst[:0]
	for _, id := range t.Nearby(p) {
		c := t.Cells[id]
		if c.Tier < minTier {
			continue
		}
		if sig, ok := c.MeasureInRange(p, rng); ok {
			dst = append(dst, sig)
		}
	}
	return dst
}

// SameDomain reports whether two cells belong to the same domain.
func (t *Topology) SameDomain(a, b CellID) bool {
	da, db := t.Cells[a].Domain, t.Cells[b].Domain
	return da != NoDomain && da == db
}

// DomainRoot returns the domain-macro cell id of c, or NoCell for cells
// above the domain level.
func (t *Topology) DomainRoot(c CellID) CellID {
	d := t.Cells[c].Domain
	if d == NoDomain {
		return NoCell
	}
	return t.Domains[d].Root
}

// RootOf returns the top-level ancestor (upper-layer macro BS) of c.
func (t *Topology) RootOf(c CellID) CellID {
	for p := t.Cells[c].Parent; p != NoCell; p = t.Cells[p].Parent {
		c = p
	}
	return c
}

// SameUpperBS reports whether two cells hang beneath the same upper-layer
// macro base station — the distinction between the paper's two
// inter-domain handoff procedures (Fig 3.2 vs Fig 3.3).
func (t *Topology) SameUpperBS(a, b CellID) bool {
	return t.RootOf(a) == t.RootOf(b)
}

// TierOf returns the tier of c.
func (t *Topology) TierOf(c CellID) Tier { return t.Cells[c].Tier }
