package experiments

import (
	"context"
	"fmt"
	"sync"

	"pathsel/internal/dataset"
	"pathsel/internal/geo"
	"pathsel/internal/topology"
)

// PrimaryDatasetNames lists the datasets a snapshot must carry to
// reassemble a suite: the six campaign outputs. The two North American
// subsets (D2-NA, N2-NA) are derived views sharing path data with
// D2/N2, so Reassemble recomputes them instead of duplicating them on
// disk.
func PrimaryDatasetNames() []string {
	return []string{"UW1", "UW3", "UW4-A", "UW4-B", "D2", "N2"}
}

// Reassemble rebuilds a complete Suite from its persisted campaign
// outputs. The measurement substrate (topologies, IGP tables, BGP
// routes, congestion model, probers) is a pure function of cfg and is
// regenerated through the same helpers the cold build uses — at the
// full preset that costs milliseconds against the tens of seconds the
// campaigns themselves take, which is the entire point of snapshotting:
// only the expensive, already-deterministic campaign data rides on
// disk. primary must hold every PrimaryDatasetNames entry; the D2-NA
// and N2-NA subsets are recomputed from the restored topology exactly
// as the cold build derives them. A dataset that names a host its
// regenerated topology lacks is an error.
func Reassemble(ctx context.Context, cfg Config, primary map[string]*dataset.Dataset) (*Suite, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	for _, name := range PrimaryDatasetNames() {
		if primary[name] == nil {
			return nil, fmt.Errorf("experiments: reassemble: missing dataset %q", name)
		}
	}
	sc := scaleFor(cfg.Preset)
	s := &Suite{Config: cfg}

	// The two planes are independent; regenerate them concurrently the
	// way BuildContext does.
	var wg sync.WaitGroup
	var uwErr, d2Err error
	var uwPlane, d2Plane *plane
	wg.Add(2)
	go func() {
		defer wg.Done()
		if uwErr = ctx.Err(); uwErr != nil {
			return
		}
		uwPlane, uwErr = buildPlane(uwTopologyConfig(cfg, sc), cfg.Seed+101, cfg.Seed+201)
	}()
	go func() {
		defer wg.Done()
		if d2Err = ctx.Err(); d2Err != nil {
			return
		}
		d2Plane, d2Err = buildPlane(d2TopologyConfig(cfg, sc), cfg.Seed+102, cfg.Seed+202)
	}()
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if uwErr != nil {
		return nil, fmt.Errorf("experiments: reassemble UW plane: %w", uwErr)
	}
	if d2Err != nil {
		return nil, fmt.Errorf("experiments: reassemble D2 plane: %w", d2Err)
	}
	s.TopoUW, s.uwPlane = uwPlane.top, uwPlane
	s.TopoD2, s.d2Plane = d2Plane.top, d2Plane

	s.UW1 = primary["UW1"]
	s.UW3 = primary["UW3"]
	s.UW4A = primary["UW4-A"]
	s.UW4B = primary["UW4-B"]
	s.D2 = primary["D2"]
	s.N2 = primary["N2"]
	for _, ds := range []*dataset.Dataset{s.UW1, s.UW3, s.UW4A, s.UW4B} {
		if err := checkEndpoints(uwPlane.top, ds); err != nil {
			return nil, err
		}
	}
	for _, ds := range []*dataset.Dataset{s.D2, s.N2} {
		if err := checkEndpoints(d2Plane.top, ds); err != nil {
			return nil, err
		}
	}
	s.D2NA = s.D2.Subset("D2-NA", inRegion(d2Plane.top, s.D2.Hosts, geo.NorthAmerica))
	s.N2NA = s.N2.Subset("N2-NA", inRegion(d2Plane.top, s.N2.Hosts, geo.NorthAmerica))
	return s, nil
}

// checkEndpoints verifies that every host a persisted dataset names —
// its host list, its path endpoints and its episode entries — exists
// in the regenerated topology. A snapshot with a valid checksum can
// still disagree with it: one written before a substrate generation
// change that missed its snapshot format version bump, or one crafted
// by hand. Without the check, the first host lookup (inRegion in
// Reassemble, or any analysis) dereferences nil.
func checkEndpoints(top *topology.Topology, d *dataset.Dataset) error {
	known := func(h topology.HostID) bool { return top.Host(h) != nil }
	for _, h := range d.Hosts {
		if !known(h) {
			return fmt.Errorf("experiments: reassemble: dataset %s names host %d, which its topology lacks", d.Name, h)
		}
	}
	unknown := 0
	for k := range d.Paths {
		if !known(k.Src) || !known(k.Dst) {
			unknown++
		}
	}
	for _, ep := range d.Episodes {
		for k := range ep.RTTMs {
			if !known(k.Src) || !known(k.Dst) {
				unknown++
			}
		}
	}
	if unknown > 0 {
		return fmt.Errorf("experiments: reassemble: dataset %s has %d paths or episode entries with an endpoint its topology lacks", d.Name, unknown)
	}
	return nil
}
