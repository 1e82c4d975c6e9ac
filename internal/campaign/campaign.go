// Package campaign is the durable sweep-campaign engine: the paper's
// E1–E13 evaluation shape — a grid of network configurations × AP
// dispatching policies × random trials — promoted to a first-class,
// resumable artifact. A campaign is declared as a JSON manifest,
// compiled into content-addressed jobs (one simulation per job, its
// key the SHA-256 of the fully resolved simulator configuration), and
// executed on the shared worker pool, one profibus.Simulate per job.
// Results are written through to a disk-backed memo.Store the moment
// each simulation completes, so a killed campaign resumes from its
// completed jobs and a repeated campaign against the same store is
// warm-started — with tables byte-identical to an uninterrupted run in
// both cases. Table rows stream through a stats.RowStreamer in grid
// order as their last job lands.
package campaign

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"profirt/internal/ap"
	"profirt/internal/configfile"
	"profirt/internal/core"
	"profirt/internal/memo"
	"profirt/internal/profibus"
	"profirt/internal/timeunit"
	"profirt/internal/workload"
)

// Compile-time bounds keeping hostile or runaway manifests from
// allocating unbounded grids (the fuzz harness leans on these).
const (
	maxNetworks = 1024
	maxScales   = 64
	maxPolicies = 8
	maxTrials   = 4096
	maxJobs     = 1 << 20
)

// Manifest is the on-disk JSON campaign description.
type Manifest struct {
	// Name labels the campaign in tables and status output.
	Name string `json:"name"`
	// Seed is the campaign base seed; job i of the compiled grid
	// simulates with seed Seed ⊕ FNV-1a(i) (profibus.BatchSeed), so
	// every job's random stream is pinned to its grid position and a
	// resumed subset replays the exact seeds of an uninterrupted run.
	Seed int64 `json:"seed,omitempty"`
	// Trials is the number of simulations per (network, scale, policy)
	// cell.
	Trials int `json:"trials"`
	// Horizon, when positive, overrides every network's simulation
	// span.
	Horizon timeunit.Ticks `json:"horizon,omitempty"`
	// Policies are the AP dispatchers to sweep ("fcfs", "dm", "edf");
	// empty means all three.
	Policies []string `json:"policies,omitempty"`
	// DeadlineScales multiply every high-priority deadline (the
	// paper's deadline-tightening axis); empty means [1].
	DeadlineScales []float64 `json:"deadlineScales,omitempty"`
	// Networks are the swept configurations, inline or by reference.
	Networks []NetworkSpec `json:"networks"`
}

// NetworkSpec names one swept network: either an inline configfile
// description or a reference to a JSON file holding one (resolved by
// Load relative to the manifest's directory; Parse rejects unresolved
// references so parsing arbitrary bytes never touches the filesystem).
type NetworkSpec struct {
	Name    string           `json:"name"`
	File    string           `json:"file,omitempty"`
	Network *configfile.File `json:"network,omitempty"`
}

// Job is one compiled unit of campaign work: a single simulation of
// one network at one deadline scale under one policy for one trial.
type Job struct {
	// Index is the job's position in the full grid enumeration
	// (network-major, then scale, policy, trial); it pins the seed.
	Index int
	// Row is the table row the job feeds: network×scale, in grid order.
	Row int
	// Net, Scale, Policy, Trial locate the job in the grid.
	Net, Scale, Policy, Trial int
	// Key is the content address: SHA-256 of the effective simulator
	// configuration (network, scaled deadlines, dispatcher, horizon,
	// derived seed). Two jobs with equal keys would simulate equal
	// configs, so sharing one store record is correct by construction.
	Key memo.Key
	// Config is the fully resolved simulator configuration.
	Config profibus.Config
}

// compiledNet is one named network's simulator configuration; the
// analytic model is derived from it (profibus.Network) where a verdict
// needs one.
type compiledNet struct {
	name string
	cfg  profibus.Config
}

// Campaign is a compiled manifest: the resolved grid, its jobs and the
// manifest hash that binds result stores to it.
type Campaign struct {
	// Manifest is the resolved manifest (defaults applied, file
	// references inlined).
	Manifest Manifest
	// Hash is the SHA-256 of the resolved manifest; OpenStore meta.
	Hash [sha256.Size]byte

	policies []ap.Policy
	scales   []float64
	nets     []compiledNet
	jobs     []Job
}

// Jobs returns the compiled job list in grid order.
func (c *Campaign) Jobs() []Job { return c.jobs }

// Rows returns the number of table rows (networks × deadline scales).
func (c *Campaign) Rows() int { return len(c.nets) * len(c.scales) }

// Parse compiles a manifest from JSON bytes. Unknown fields and data
// after the manifest are rejected, file references are not resolved (use Load); anything
// accepted compiles to a valid job grid.
func Parse(raw []byte) (*Campaign, error) {
	var m Manifest
	if err := configfile.DecodeStrict(bytes.NewReader(raw), &m); err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return New(m)
}

// Load reads, resolves and compiles a manifest file; network file
// references resolve relative to the manifest's directory.
func Load(path string) (*Campaign, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var m Manifest
	if err := configfile.DecodeStrict(bytes.NewReader(raw), &m); err != nil {
		return nil, fmt.Errorf("campaign: %s: %w", path, err)
	}
	if err := m.ResolveFiles(filepath.Dir(path)); err != nil {
		return nil, err
	}
	return New(m)
}

// ResolveFiles inlines every file-referenced network, reading paths
// relative to dir.
func (m *Manifest) ResolveFiles(dir string) error {
	for i := range m.Networks {
		ns := &m.Networks[i]
		if ns.File == "" {
			continue
		}
		if ns.Network != nil {
			return fmt.Errorf("campaign: network %q has both file and inline definitions", ns.Name)
		}
		path := ns.File
		if !filepath.IsAbs(path) {
			path = filepath.Join(dir, path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("campaign: network %q: %w", ns.Name, err)
		}
		f, err := configfile.Decode(raw)
		if err != nil {
			return fmt.Errorf("campaign: network %q: %w", ns.Name, err)
		}
		ns.Network = f
		ns.File = ""
	}
	return nil
}

// New validates a manifest, applies defaults and compiles the job
// grid. The manifest must have every network inline (see
// ResolveFiles/Load).
func New(m Manifest) (*Campaign, error) {
	if m.Trials < 1 || m.Trials > maxTrials {
		return nil, fmt.Errorf("campaign: trials must be in [1,%d], got %d", maxTrials, m.Trials)
	}
	if m.Horizon < 0 {
		return nil, fmt.Errorf("campaign: horizon must be non-negative, got %d", m.Horizon)
	}
	if len(m.Networks) == 0 {
		return nil, fmt.Errorf("campaign: no networks")
	}
	if len(m.Networks) > maxNetworks {
		return nil, fmt.Errorf("campaign: too many networks (%d > %d)", len(m.Networks), maxNetworks)
	}
	if len(m.Policies) == 0 {
		m.Policies = []string{"fcfs", "dm", "edf"}
	}
	if len(m.Policies) > maxPolicies {
		return nil, fmt.Errorf("campaign: too many policies (%d > %d)", len(m.Policies), maxPolicies)
	}
	if len(m.DeadlineScales) == 0 {
		m.DeadlineScales = []float64{1}
	}
	if len(m.DeadlineScales) > maxScales {
		return nil, fmt.Errorf("campaign: too many deadline scales (%d > %d)", len(m.DeadlineScales), maxScales)
	}
	c := &Campaign{Manifest: m, scales: m.DeadlineScales}
	for i, s := range m.Policies {
		pol, err := configfile.ParsePolicy(s)
		if err != nil {
			return nil, fmt.Errorf("campaign: policy %d: %w", i, err)
		}
		c.policies = append(c.policies, pol)
	}
	for _, sc := range m.DeadlineScales {
		if !(sc > 0) || sc > 1e6 {
			return nil, fmt.Errorf("campaign: deadline scale %g out of (0, 1e6]", sc)
		}
	}
	total := len(m.Networks) * len(m.DeadlineScales) * len(c.policies) * m.Trials
	if total > maxJobs {
		return nil, fmt.Errorf("campaign: grid of %d jobs exceeds the %d-job bound", total, maxJobs)
	}
	seen := map[string]bool{}
	for i := range m.Networks {
		ns := &m.Networks[i]
		if ns.Network == nil {
			return nil, fmt.Errorf("campaign: network %q has no inline definition (file references resolve via Load)", ns.Name)
		}
		name := ns.Name
		if name == "" {
			name = fmt.Sprintf("net%d", i)
		}
		if seen[name] {
			return nil, fmt.Errorf("campaign: duplicate network name %q", name)
		}
		seen[name] = true
		_, cfg, err := ns.Network.Build()
		if err != nil {
			return nil, fmt.Errorf("campaign: network %q: %w", name, err)
		}
		if m.Horizon > 0 {
			cfg.Horizon = m.Horizon
		}
		c.nets = append(c.nets, compiledNet{name: name, cfg: cfg})
	}
	raw, err := json.Marshal(c.Manifest)
	if err != nil {
		return nil, err
	}
	c.Hash = sha256.Sum256(raw)
	return c, c.compile()
}

// compile enumerates the grid (network-major, then scale, policy,
// trial) into content-addressed jobs.
func (c *Campaign) compile() error {
	idx := 0
	for ni, n := range c.nets {
		for si, scale := range c.scales {
			scaled := workload.ScaleDeadlines(n.cfg, scale)
			// Extreme scale×deadline products can overflow Ticks; catch
			// it here so every compiled job config is valid (dispatcher
			// and seed below cannot affect validity).
			if err := scaled.Validate(); err != nil {
				return fmt.Errorf("campaign: network %q at deadline scale %g: %w", n.name, scale, err)
			}
			row := ni*len(c.scales) + si
			for pi, pol := range c.policies {
				cfg := workload.WithDispatcher(scaled, pol)
				for t := 0; t < c.Manifest.Trials; t++ {
					cfg := cfg
					cfg.Seed = profibus.BatchSeed(c.Manifest.Seed, idx)
					key, err := jobKey(cfg)
					if err != nil {
						return err
					}
					c.jobs = append(c.jobs, Job{
						Index: idx, Row: row,
						Net: ni, Scale: si, Policy: pi, Trial: t,
						Key: key, Config: cfg,
					})
					idx++
				}
			}
		}
	}
	return nil
}

// jobKeyVersion is bumped whenever the job encoding or the simulator's
// observable semantics change, invalidating every stored result.
const jobKeyVersion = 1

// jobKey is the content address of one job: SHA-256 over a version tag
// and the canonical JSON of the effective simulator configuration.
// profibus.Config contains no maps, so encoding/json renders it
// deterministically.
func jobKey(cfg profibus.Config) (memo.Key, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return memo.Key{}, err
	}
	h := sha256.New()
	fmt.Fprintf(h, "profirt-campaign-job/v%d\n", jobKeyVersion)
	h.Write(raw)
	var k memo.Key
	h.Sum(k[:0])
	return k, nil
}

// scaledNet returns the analytic model for one table row (deadlines
// scaled), for the reducer's per-policy verdict columns.
func (c *Campaign) scaledNet(row int) core.Network {
	n := c.nets[row/len(c.scales)]
	return profibus.Network(workload.ScaleDeadlines(n.cfg, c.scales[row%len(c.scales)]))
}
