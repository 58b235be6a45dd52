package topology

import (
	"errors"
	"testing"

	"repro/internal/addr"
	"repro/internal/geo"
	"repro/internal/radio"
	"repro/internal/simtime"
)

func build(t *testing.T, cfg Config) *Topology {
	t.Helper()
	top, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return top
}

func TestBuildDefaultShape(t *testing.T) {
	top := build(t, DefaultConfig())
	// 2 roots, 2 macros each, 3 micros per macro, 1 pico per micro.
	wantRoots, wantMacros := 2, 4
	wantMicros := 12
	wantPicos := 12
	if got := len(top.CellsOfTier(TierRoot)); got != wantRoots {
		t.Fatalf("roots = %d, want %d", got, wantRoots)
	}
	if got := len(top.CellsOfTier(TierMacro)); got != wantMacros {
		t.Fatalf("macros = %d, want %d", got, wantMacros)
	}
	if got := len(top.CellsOfTier(TierMicro)); got != wantMicros {
		t.Fatalf("micros = %d, want %d", got, wantMicros)
	}
	if got := len(top.CellsOfTier(TierPico)); got != wantPicos {
		t.Fatalf("picos = %d, want %d", got, wantPicos)
	}
	if len(top.Domains) != 4 {
		t.Fatalf("domains = %d, want 4", len(top.Domains))
	}
}

func TestBuildRejectsBadConfig(t *testing.T) {
	cases := []Config{
		{Roots: 0, MacrosPerRoot: 1, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 1, MacrosPerRoot: 0, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 1, MacrosPerRoot: 1, MicrosPerMacro: -1, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 1, MacrosPerRoot: 1, BasePrefix: addr.MustParsePrefix("10.1.0.0/16")},
	}
	for i, cfg := range cases {
		if _, err := Build(cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: err = %v, want ErrBadConfig", i, err)
		}
	}
}

func TestHierarchyParentage(t *testing.T) {
	top := build(t, DefaultConfig())
	for _, c := range top.Cells {
		switch c.Tier {
		case TierRoot:
			if c.Parent != NoCell {
				t.Fatalf("root %s has parent", c.Name)
			}
			if c.Domain != NoDomain {
				t.Fatalf("root %s in a domain", c.Name)
			}
		case TierMacro:
			if top.TierOf(c.Parent) != TierRoot {
				t.Fatalf("macro %s parent tier = %v", c.Name, top.TierOf(c.Parent))
			}
		case TierMicro:
			pt := top.TierOf(c.Parent)
			if pt != TierMacro && pt != TierMicro {
				t.Fatalf("micro %s parent tier = %v", c.Name, pt)
			}
			if pt == TierMicro && !top.SameDomain(c.ID, c.Parent) {
				t.Fatalf("chained micro %s crosses domains", c.Name)
			}
		case TierPico:
			if top.TierOf(c.Parent) != TierMicro {
				t.Fatalf("pico %s parent tier = %v", c.Name, top.TierOf(c.Parent))
			}
		}
		// Children lists are consistent with Parent pointers.
		for _, ch := range c.Children {
			if top.Cell(ch).Parent != c.ID {
				t.Fatalf("child link mismatch at %s", c.Name)
			}
		}
	}
}

func TestChainedMicrosExist(t *testing.T) {
	top := build(t, DefaultConfig())
	chained := 0
	for _, c := range top.CellsOfTier(TierMicro) {
		if top.TierOf(c.Parent) == TierMicro {
			chained++
		}
	}
	if chained == 0 {
		t.Fatal("ChainMicros produced no micro->micro parentage")
	}
	// Without chaining, all micros hang off macros.
	cfg := DefaultConfig()
	cfg.ChainMicros = false
	flat := build(t, cfg)
	for _, c := range flat.CellsOfTier(TierMicro) {
		if flat.TierOf(c.Parent) != TierMacro {
			t.Fatal("flat layout still chained micros")
		}
	}
}

func TestPrefixesDisjointAndAssigned(t *testing.T) {
	top := build(t, DefaultConfig())
	seen := make(map[string]string)
	for _, c := range top.Cells {
		if c.Prefix.Bits == 0 {
			t.Fatalf("cell %s has no prefix", c.Name)
		}
		if prev, ok := seen[c.Prefix.String()]; ok {
			t.Fatalf("prefix %s assigned to both %s and %s", c.Prefix, prev, c.Name)
		}
		seen[c.Prefix.String()] = c.Name
	}
	// Domain cells share the domain /16.
	for _, dom := range top.Domains {
		want := top.Cell(dom.Root).Prefix.Base & 0xFFFF0000
		for _, cid := range dom.Cells {
			if top.Cell(cid).Prefix.Base&0xFFFF0000 != want {
				t.Fatalf("cell %s outside its domain /16", top.Cell(cid).Name)
			}
		}
	}
}

func TestCoverageNesting(t *testing.T) {
	top := build(t, DefaultConfig())
	// Every micro/pico centre must be covered by its domain macro and its
	// root, so upward handoff is always geometrically possible.
	for _, c := range top.Cells {
		if c.Tier == TierRoot {
			continue
		}
		root := top.Cell(top.RootOf(c.ID))
		if !covers(root, c.Pos) {
			t.Fatalf("%s centre outside root coverage", c.Name)
		}
		if c.Tier == TierMicro || c.Tier == TierPico {
			dm := top.Cell(top.DomainRoot(c.ID))
			if !covers(dm, c.Pos) {
				t.Fatalf("%s centre outside domain macro coverage", c.Name)
			}
		}
	}
}

// covering returns the ids of cells whose nominal coverage contains p,
// in id order, from the grid neighbourhood of p.
func covering(top *Topology, p geo.Point) []CellID {
	var out []CellID
	for _, id := range top.Nearby(p) {
		if covers(top.Cells[id], p) {
			out = append(out, id)
		}
	}
	return out
}

func TestCoveringQuery(t *testing.T) {
	top := build(t, DefaultConfig())
	micro := top.CellsOfTier(TierMicro)[0]
	ids := covering(top, micro.Pos)
	foundSelf, foundMacro := false, false
	for _, id := range ids {
		if id == micro.ID {
			foundSelf = true
		}
		if id == top.DomainRoot(micro.ID) {
			foundMacro = true
		}
	}
	if !foundSelf || !foundMacro {
		t.Fatalf("Covering at micro centre = %v", ids)
	}
	// A point far outside the arena is covered by nothing.
	if ids := covering(top, geo.Pt(-1e6, -1e6)); len(ids) != 0 {
		t.Fatalf("far point covered by %v", ids)
	}
}

func TestSignalsMeasureCandidates(t *testing.T) {
	top := build(t, DefaultConfig())
	sigs := top.MeasureInto(nil, top.Cells[0].Pos, nil, TierPico)
	if len(sigs) == 0 {
		t.Fatal("no signals at a root centre")
	}
	// Every in-range cell must be measured (grid superset property).
	inRange := 0
	for _, c := range top.Cells {
		if c.Pos.DistanceTo(top.Cells[0].Pos) <= c.Radio.MaxRange {
			inRange++
		}
	}
	measured := 0
	for _, s := range sigs {
		if s.InRange {
			measured++
		}
	}
	if measured != inRange {
		t.Fatalf("measured %d in-range cells, want %d", measured, inRange)
	}
	// Deterministic without rng.
	sigs2 := top.MeasureInto(nil, top.Cells[0].Pos, nil, TierPico)
	for i := range sigs {
		if sigs[i] != sigs2[i] {
			t.Fatal("nil-rng signals nondeterministic")
		}
	}
	// A shadowing rng measures the same in-range cells in the same order:
	// shadowing moves RSSIs, never which cells are measured.
	shadowed := top.MeasureInto(nil, top.Cells[0].Pos, simtime.NewRand(1), TierPico)
	if len(shadowed) != len(sigs) {
		t.Fatalf("shadowed measurement has %d signals, want %d", len(shadowed), len(sigs))
	}
	moved := false
	for i := range sigs {
		if shadowed[i].Cell != sigs[i].Cell || !shadowed[i].InRange {
			t.Fatalf("shadowed signal %d = %+v, want in-range cell %d", i, shadowed[i], sigs[i].Cell)
		}
		moved = moved || shadowed[i].RSSIDBm != sigs[i].RSSIDBm
	}
	if !moved {
		t.Fatal("shadowing rng left every RSSI at its mean")
	}
}

// Cell.MeasureInRange is radio.MeasureAt filtered to in-range cells: it
// reports false exactly when MeasureAt's InRange is false and otherwise
// returns MeasureAt's Signal bit for bit — at random points, on the range
// circle, and on the axes at exactly MaxRange, where the per-axis
// prefilter sits on its edge. Each trial runs unshadowed and with
// equal-seeded shadowing streams; in range both draw the same samples,
// out of range MeasureInRange draws none.
func TestMeasureInRangeMatchesMeasureAt(t *testing.T) {
	top := build(t, DefaultConfig())
	rng := simtime.NewRand(7)
	var in, out int
	for trial := 0; trial < 6000; trial++ {
		c := top.Cells[rng.Intn(len(top.Cells))]
		r := c.Radio.MaxRange
		var p geo.Point
		switch trial % 3 {
		case 0:
			p = c.Pos.Add(geo.Vec(rng.Uniform(-1.5*r, 1.5*r), rng.Uniform(-1.5*r, 1.5*r)))
		case 1:
			p = c.Pos.Add(geo.FromHeading(rng.Uniform(0, 6.283185307179586), r))
		default:
			d := []geo.Vector{geo.Vec(r, 0), geo.Vec(-r, 0), geo.Vec(0, r), geo.Vec(0, -r)}[rng.Intn(4)]
			p = c.Pos.Add(d.Scale(1 + rng.Uniform(-1e-15, 1e-15)))
		}
		want := radio.MeasureAt(int(c.ID), c.Radio, c.Pos, p, nil)
		got, ok := c.MeasureInRange(p, nil)
		if ok != want.InRange || (ok && got != want) {
			t.Fatalf("cell %d at %v: MeasureInRange = %+v, %v; MeasureAt = %+v", c.ID, p, got, ok, want)
		}
		seed := int64(trial) + 1
		ref, shadow := simtime.NewRand(seed), simtime.NewRand(seed)
		want = radio.MeasureAt(int(c.ID), c.Radio, c.Pos, p, ref)
		got, ok = c.MeasureInRange(p, shadow)
		if ok != want.InRange || (ok && got != want) {
			t.Fatalf("cell %d at %v shadowed: MeasureInRange = %+v, %v; MeasureAt = %+v", c.ID, p, got, ok, want)
		}
		if !ok {
			ref = simtime.NewRand(seed) // out of range: no draw expected
		}
		if a, b := ref.Float64(), shadow.Float64(); a != b {
			t.Fatalf("cell %d at %v: shadowing stream left at a different draw (in range %v)", c.ID, p, ok)
		}
		if ok {
			in++
		} else {
			out++
		}
	}
	if in == 0 || out == 0 {
		t.Fatalf("only one side of the range tested: %d in, %d out", in, out)
	}
}

// The grid must return, at any point, a sorted superset of the cells whose
// nominal range reaches that point — the property the O(nearby)
// measurement path relies on.
func TestNearbySupersetProperty(t *testing.T) {
	top := build(t, DefaultConfig())
	rng := simtime.NewRand(42)
	for trial := 0; trial < 2000; trial++ {
		p := geo.Pt(
			rng.Uniform(top.Arena.Min.X-1000, top.Arena.Max.X+1000),
			rng.Uniform(top.Arena.Min.Y-1000, top.Arena.Max.Y+1000),
		)
		near := top.Nearby(p)
		for i := 1; i < len(near); i++ {
			if near[i] <= near[i-1] {
				t.Fatalf("Nearby not strictly ascending at %v: %v", p, near)
			}
		}
		set := make(map[CellID]bool, len(near))
		for _, id := range near {
			set[id] = true
		}
		for _, c := range top.Cells {
			if c.Pos.DistanceTo(p) <= c.Radio.MaxRange && !set[c.ID] {
				t.Fatalf("cell %s in range of %v but missing from Nearby", c.Name, p)
			}
		}
	}
}

func TestCrossoverAndHops(t *testing.T) {
	top := build(t, DefaultConfig())
	// Two micros in the same domain: crossover within the domain subtree.
	dom := top.Domains[0]
	var micros []CellID
	for _, cid := range dom.Cells {
		if top.TierOf(cid) == TierMicro {
			micros = append(micros, cid)
		}
	}
	if len(micros) < 2 {
		t.Fatal("domain has fewer than 2 micros")
	}
	x, _ := crossover(top, micros[0], micros[1])
	if x == NoCell || !top.SameDomain(micros[0], x) && top.TierOf(x) != TierRoot {
		t.Fatalf("crossover = %v", x)
	}
	// micros[1] chains under micros[0], so their crossover is micros[0]
	// itself at zero hops from it.
	if x != micros[0] {
		t.Fatal("ancestor crossover should be the ancestor")
	}
	if _, h := crossover(top, micros[1], micros[0]); h != 1 {
		t.Fatalf("child->parent hops = %d, want 1", h)
	}
	// micros[1] (chained) and micros[2] (sibling branch) merge at the
	// domain macro: two hops up from the chained micro.
	if _, h := crossover(top, micros[1], micros[2]); h != 2 {
		t.Fatalf("chained->sibling hops = %d, want 2", h)
	}
	// Same cell: crossover is itself, zero hops.
	if x, h := crossover(top, micros[0], micros[0]); x != micros[0] || h != 0 {
		t.Fatalf("self crossover = %d at %d hops, want %d at 0", x, h, micros[0])
	}
	// Cells under different roots share no ancestor.
	r0 := top.CellsOfTier(TierMacro)[0].ID
	var r1 CellID = NoCell
	for _, c := range top.CellsOfTier(TierMacro) {
		if top.RootOf(c.ID) != top.RootOf(r0) {
			r1 = c.ID
			break
		}
	}
	if r1 == NoCell {
		t.Fatal("no macro under a different root")
	}
	if x, h := crossover(top, r0, r1); x != NoCell || h != -1 {
		t.Fatalf("different-root crossover = %d at %d hops, want NoCell at -1", x, h)
	}
}

// crossover returns the lowest common ancestor of a and b — the paper's
// "crossover base station" where old and new handoff paths merge — and
// how many parent-hops up from a it sits, or NoCell and -1 when they
// share no ancestor (different roots).
func crossover(top *Topology, a, b CellID) (CellID, int) {
	pb := pathToRoot(top, b)
	for i, c := range pathToRoot(top, a) {
		if contains(pb, c) {
			return c, i
		}
	}
	return NoCell, -1
}

func TestDomainAndUpperBSPredicates(t *testing.T) {
	top := build(t, DefaultConfig())
	macros := top.CellsOfTier(TierMacro)
	// macros[0] and macros[1] share root-0; macros[2], macros[3] share root-1.
	if !top.SameUpperBS(macros[0].ID, macros[1].ID) {
		t.Fatal("same-root macros not recognised")
	}
	if top.SameUpperBS(macros[0].ID, macros[2].ID) {
		t.Fatal("different-root macros reported same upper BS")
	}
	if top.SameDomain(macros[0].ID, macros[1].ID) {
		t.Fatal("different domains reported same")
	}
	dom := top.Domains[0]
	for _, cid := range dom.Cells {
		if !top.SameDomain(dom.Root, cid) {
			t.Fatal("domain membership broken")
		}
		if top.DomainRoot(cid) != dom.Root {
			t.Fatal("DomainRoot broken")
		}
	}
	root := top.CellsOfTier(TierRoot)[0]
	if top.DomainRoot(root.ID) != NoCell {
		t.Fatal("root DomainRoot should be NoCell")
	}
}

func TestPathToRootEndsAtRoot(t *testing.T) {
	top := build(t, DefaultConfig())
	for _, c := range top.Cells {
		path := pathToRoot(top, c.ID)
		if path[0] != c.ID {
			t.Fatal("path must start at the cell")
		}
		last := top.Cell(path[len(path)-1])
		if last.Tier != TierRoot {
			t.Fatalf("path from %s ends at %s", c.Name, last.Name)
		}
		if top.RootOf(c.ID) != last.ID {
			t.Fatal("RootOf disagrees with PathToRoot")
		}
	}
}

func TestArenaCoversEverything(t *testing.T) {
	top := build(t, DefaultConfig())
	for _, c := range top.Cells {
		if !top.Arena.Contains(c.Pos) {
			t.Fatalf("cell %s outside arena", c.Name)
		}
	}
	if size := top.Arena.Max.Sub(top.Arena.Min); size.DX <= 0 || size.DY <= 0 {
		t.Fatal("degenerate arena")
	}
}

func TestCellAccessorBounds(t *testing.T) {
	top := build(t, DefaultConfig())
	if top.Cell(NoCell) != nil {
		t.Fatal("Cell(NoCell) should be nil")
	}
	if top.Cell(CellID(len(top.Cells))) != nil {
		t.Fatal("out-of-range Cell should be nil")
	}
	if top.Cell(0) == nil {
		t.Fatal("Cell(0) should exist")
	}
}

func TestSingleRootSingleMacro(t *testing.T) {
	cfg := Config{
		Roots:          1,
		MacrosPerRoot:  1,
		MicrosPerMacro: 2,
		PicosPerMicro:  0,
		BasePrefix:     addr.MustParsePrefix("10.0.0.0/8"),
	}
	top := build(t, cfg)
	macro := top.CellsOfTier(TierMacro)[0]
	root := top.CellsOfTier(TierRoot)[0]
	if macro.Pos != root.Pos {
		t.Fatal("single macro should sit at root centre")
	}
	if len(top.Domains) != 1 {
		t.Fatalf("domains = %d", len(top.Domains))
	}
}

// --- edge geometry -------------------------------------------------------

func TestMultiRootGridLayout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Roots = 9
	cfg.RootCols = 3
	top := build(t, cfg)
	roots := top.CellsOfTier(TierRoot)
	if len(roots) != 9 {
		t.Fatalf("roots = %d", len(roots))
	}
	// Three distinct X positions and three distinct Y positions: a 3x3
	// grid, not a row.
	xs, ys := make(map[float64]bool), make(map[float64]bool)
	for _, r := range roots {
		xs[r.Pos.X] = true
		ys[r.Pos.Y] = true
	}
	if len(xs) != 3 || len(ys) != 3 {
		t.Fatalf("grid has %d columns x %d rows, want 3x3", len(xs), len(ys))
	}
	// Roots 0..2 share row 0; roots 0,3,6 share column 0.
	if roots[0].Pos.Y != roots[2].Pos.Y {
		t.Fatal("first grid row not horizontal")
	}
	if roots[0].Pos.X != roots[6].Pos.X {
		t.Fatal("first grid column not vertical")
	}
	// Grid arenas are two-dimensional: taller than one root band.
	if size := top.Arena.Max.Sub(top.Arena.Min); size.DY <= size.DX/2 {
		t.Fatalf("3x3 grid arena %gx%g is still row-shaped", size.DX, size.DY)
	}
	// The hierarchy invariants hold on grids too.
	for _, c := range top.Cells {
		if c.Tier != TierRoot && !covers(top.Cell(top.RootOf(c.ID)), c.Pos) {
			t.Fatalf("%s outside its root's coverage on the grid", c.Name)
		}
	}
}

func TestRootColsDegenerateCasesMatchRow(t *testing.T) {
	base := DefaultConfig() // 2 roots, RootCols zero: legacy row
	row := build(t, base)
	for _, cols := range []int{0, 2, 5} { // 0, ==Roots and >Roots are all the row
		cfg := base
		cfg.RootCols = cols
		top := build(t, cfg)
		if len(top.Cells) != len(row.Cells) {
			t.Fatalf("RootCols=%d changed cell count", cols)
		}
		for i, c := range top.Cells {
			if c.Pos != row.Cells[i].Pos {
				t.Fatalf("RootCols=%d moved cell %s", cols, c.Name)
			}
		}
	}
}

func TestNoMicros(t *testing.T) {
	cfg := Config{
		Roots:          2,
		MacrosPerRoot:  2,
		MicrosPerMacro: 0,
		PicosPerMicro:  3, // irrelevant without micros
		BasePrefix:     addr.MustParsePrefix("10.0.0.0/8"),
	}
	top := build(t, cfg)
	if n := len(top.CellsOfTier(TierMicro)); n != 0 {
		t.Fatalf("micros = %d, want 0", n)
	}
	if n := len(top.CellsOfTier(TierPico)); n != 0 {
		t.Fatalf("picos = %d without micros to parent them", n)
	}
	// Macro-only domains still exist, own prefixes, and reach the root.
	if len(top.Domains) != 4 {
		t.Fatalf("domains = %d", len(top.Domains))
	}
	for _, dom := range top.Domains {
		if len(dom.Cells) != 1 {
			t.Fatalf("macro-only domain has %d cells", len(dom.Cells))
		}
		if top.Cell(dom.Root).Prefix.Bits == 0 {
			t.Fatal("macro-only domain root has no prefix")
		}
	}
	for _, c := range top.CellsOfTier(TierMacro) {
		if top.TierOf(top.RootOf(c.ID)) != TierRoot {
			t.Fatalf("macro %s does not reach a root", c.Name)
		}
	}
}

func TestNoPicos(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PicosPerMicro = 0
	top := build(t, cfg)
	if n := len(top.CellsOfTier(TierPico)); n != 0 {
		t.Fatalf("picos = %d, want 0", n)
	}
	// Micros become the leaves: no children anywhere below micro tier.
	for _, c := range top.CellsOfTier(TierMicro) {
		for _, ch := range c.Children {
			if top.TierOf(ch) == TierPico {
				t.Fatalf("micro %s still parents a pico", c.Name)
			}
		}
	}
}

func TestRadioOverrides(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RootRadio = RootParams()
	cfg.RootRadio.MaxRange = 20000
	cfg.MacroRadio = radio.MacroParams()
	cfg.MacroRadio.MaxRange = 5000
	cfg.MicroRadio = radio.MicroParams()
	cfg.MicroRadio.MaxRange = 900
	cfg.PicoRadio = radio.PicoParams()
	cfg.PicoRadio.MaxRange = 150
	top := build(t, cfg)
	want := map[Tier]float64{TierRoot: 20000, TierMacro: 5000, TierMicro: 900, TierPico: 150}
	for _, c := range top.Cells {
		if c.Radio.MaxRange != want[c.Tier] {
			t.Fatalf("%s range %g, want %g", c.Name, c.Radio.MaxRange, want[c.Tier])
		}
	}
	// Geometry scales with the overridden ranges: the nesting invariant
	// must survive a 20 km root.
	for _, c := range top.Cells {
		if c.Tier == TierRoot {
			continue
		}
		if !covers(top.Cell(top.RootOf(c.ID)), c.Pos) {
			t.Fatalf("%s outside root coverage under radio overrides", c.Name)
		}
	}
}

func TestCellCountMatchesBuild(t *testing.T) {
	cases := []Config{
		DefaultConfig(),
		{Roots: 1, MacrosPerRoot: 1, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 3, RootCols: 2, MacrosPerRoot: 2, MicrosPerMacro: 4, PicosPerMicro: 2,
			BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 2, MacrosPerRoot: 2, MicrosPerMacro: 0, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
	}
	for i, cfg := range cases {
		top := build(t, cfg)
		if got, want := len(top.Cells), cfg.CellCount(); got != want {
			t.Errorf("case %d: Build made %d cells, CellCount says %d", i, got, want)
		}
	}
}

func TestTierStrings(t *testing.T) {
	for _, tier := range []Tier{TierPico, TierMicro, TierMacro, TierRoot, Tier(42)} {
		if tier.String() == "" {
			t.Fatal("empty tier string")
		}
	}
}

// TestNearbyCacheMatchesUncached recomputes every bucket's candidate list
// from first principles — all cells whose coverage disc overlaps the
// bucket rectangle — and requires the Build-time cache to match exactly,
// bucket by bucket, on the default layout and on multi-root dimensioned
// grids. A cache that over-prunes loses handoffs; one that under-prunes
// silently re-inflates every measurement tick.
func TestNearbyCacheMatchesUncached(t *testing.T) {
	cases := []Config{
		DefaultConfig(),
		{Roots: 1, MacrosPerRoot: 1, MicrosPerMacro: 2, PicosPerMicro: 1,
			BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 6, RootCols: 3, MacrosPerRoot: 2, MicrosPerMacro: 4, ChainMicros: true,
			PicosPerMicro: 1, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
		{Roots: 9, RootCols: 3, MacrosPerRoot: 3, MicrosPerMacro: 6,
			BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
	}
	for ci, cfg := range cases {
		top := build(t, cfg)
		g := &top.grid
		for y := 0; y < g.rows; y++ {
			for x := 0; x < g.cols; x++ {
				var want []CellID
				for _, c := range top.Cells { // uncached: brute-force overlap
					if g.discOverlapsBucket(c.Pos, c.Radio.MaxRange, x, y) {
						want = append(want, c.ID)
					}
				}
				got := g.buckets[y*g.cols+x]
				if len(got) != len(want) {
					t.Fatalf("case %d bucket (%d,%d): cached %v, uncached %v", ci, x, y, got, want)
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("case %d bucket (%d,%d): cached %v, uncached %v", ci, x, y, got, want)
					}
				}
			}
		}
	}
}

// TestNearbySupersetOnDimensionedGrid extends the in-range superset
// property to a large multi-root grid: every cell whose nominal range
// reaches a random in-arena point must appear in that point's cached
// candidate list.
func TestNearbySupersetOnDimensionedGrid(t *testing.T) {
	top := build(t, Config{Roots: 8, RootCols: 3, MacrosPerRoot: 2, MicrosPerMacro: 5,
		ChainMicros: true, PicosPerMicro: 1, BasePrefix: addr.MustParsePrefix("10.0.0.0/8")})
	rng := simtime.NewRand(11)
	for trial := 0; trial < 2000; trial++ {
		p := geo.Pt(
			rng.Uniform(top.Arena.Min.X, top.Arena.Max.X),
			rng.Uniform(top.Arena.Min.Y, top.Arena.Max.Y),
		)
		near := top.Nearby(p)
		set := make(map[CellID]bool, len(near))
		for _, id := range near {
			set[id] = true
		}
		for _, c := range top.Cells {
			if c.Pos.DistanceTo(p) <= c.Radio.MaxRange && !set[c.ID] {
				t.Fatalf("cell %s in range of %v but missing from Nearby", c.Name, p)
			}
		}
	}
}

// TestNearbyCachedPathAllocFree pins the zero-allocation budget of the
// cached candidate path: a Nearby lookup is an index into the memoized
// per-bucket lists, nothing more.
func TestNearbyCachedPathAllocFree(t *testing.T) {
	top := build(t, DefaultConfig())
	pos := top.Cells[2].Pos
	avg := testing.AllocsPerRun(1000, func() {
		if top.Nearby(pos) == nil {
			t.Fatal("in-arena point returned no candidates")
		}
	})
	if avg != 0 {
		t.Fatalf("cached Nearby allocates %.1f allocs/op, want 0", avg)
	}
}

// TestAncestorWalksMatchPathToRoot pins RootOf (a slice-free parent
// walk) to a reference built from PathToRoot, for every cell of the
// default layout and of a three-root arena with chained micros and picos.
func TestAncestorWalksMatchPathToRoot(t *testing.T) {
	for _, cfg := range []Config{
		DefaultConfig(),
		{Roots: 3, RootCols: 2, MacrosPerRoot: 2, MicrosPerMacro: 4, PicosPerMicro: 2, ChainMicros: true,
			BasePrefix: addr.MustParsePrefix("10.0.0.0/8")},
	} {
		top := build(t, cfg)
		for _, a := range top.Cells {
			pa := pathToRoot(top, a.ID)
			if got := top.RootOf(a.ID); got != pa[len(pa)-1] {
				t.Fatalf("%d roots: RootOf(%d) = %d, want %d", cfg.Roots, a.ID, got, pa[len(pa)-1])
			}
		}
	}
}

// covers reports whether p lies inside c's nominal coverage circle.
func covers(c *Cell, p geo.Point) bool { return c.Pos.DistanceTo(p) <= c.Radio.MaxRange }

// pathToRoot returns the cell ids from c up to its top-level ancestor,
// inclusive of both.
func pathToRoot(top *Topology, c CellID) []CellID {
	var out []CellID
	for c != NoCell {
		out = append(out, c)
		c = top.Cells[c].Parent
	}
	return out
}

func contains(ids []CellID, id CellID) bool {
	for _, c := range ids {
		if c == id {
			return true
		}
	}
	return false
}

func TestAncestorWalksAllocFree(t *testing.T) {
	top := build(t, DefaultConfig())
	deep := top.Cells[len(top.Cells)-1].ID
	avg := testing.AllocsPerRun(1000, func() {
		if top.RootOf(deep) == deep {
			t.Fatal("walk returned its own start")
		}
	})
	if avg != 0 {
		t.Fatalf("RootOf allocates %.1f allocs/op, want 0", avg)
	}
}
