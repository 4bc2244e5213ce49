//! Declarative experiment campaigns: typed axis grids over the runner.
//!
//! The paper's evaluation is a grid — organizations × workloads × link
//! widths × core counts × seeds — and before this module every experiment
//! binary hand-rolled its own point vector, flat-index arithmetic
//! (`results[i * orgs + j]`) and normalization loops on top of the batch
//! runner. [`Campaign`] makes the grid itself the first-class object:
//! declare the axes, execute through the existing [`BatchRunner`] (so
//! `--jobs` parallelism and the `--cache` results cache keep working
//! unchanged), and query the returned [`ResultFrame`] by coordinates
//! instead of by index.
//!
//! ```
//! use nocout::campaign::Campaign;
//! use nocout::config::Organization;
//! use nocout::runner::BatchRunner;
//! use nocout_sim::config::MeasurementWindow;
//! use nocout_workloads::Workload;
//!
//! let frame = Campaign::new()
//!     .orgs([Organization::Mesh, Organization::NocOut])
//!     .workloads([Workload::WebSearch, Workload::DataServing])
//!     .window(MeasurementWindow::fast())
//!     .run(&BatchRunner::serial());
//!
//! let norm = frame.normalize_to(Organization::Mesh);
//! let speedup = norm.get(Organization::NocOut, Workload::WebSearch);
//! assert!(speedup > 0.0);
//! assert!(norm.geomean(Organization::Mesh) == 1.0);
//! ```
//!
//! ## Canonical expansion order
//!
//! A campaign expands to points in one documented, *fixed* nesting order,
//! independent of the order the builder methods were called:
//!
//! 1. **configuration** (outermost) — the [`Campaign::orgs`] axis, or the
//!    explicit [`Campaign::variants`] axis,
//! 2. **cores** ([`Campaign::cores`]),
//! 3. **link width** ([`Campaign::link_bits`]),
//! 4. **workload** ([`Campaign::workloads`]),
//! 5. **seed** (innermost; [`Campaign::seeds`]).
//!
//! Within each axis the declared element order is preserved. Because the
//! nesting never depends on declaration order, the sequence of expanded
//! [`RunSpec`]s — and therefore the set of `RunSpec::cache_key`s a cached
//! campaign touches — is stable across refactors that merely reorder
//! builder calls (`tests/campaign.rs` pins this).
//!
//! ## Seeds and traces
//!
//! Each grid point replicates over the seed axis with the same collapsing
//! rule as every other campaign layer
//! ([`crate::runner::replication_seeds`]): seed-insensitive workloads —
//! trace replay is literal — run once per point regardless of the seed
//! axis. A `trace:PATH` workload class therefore composes with any grid:
//! it is just another element of the workload axis.

use crate::config::{ChipConfig, Organization};
use crate::metrics::{SystemMetrics, TailSummary};
use crate::runner::{BatchRunner, PointOutcome, RunSpec};
use nocout_sim::config::{MeasurementWindow, SeedSet};
use nocout_sim::stats::{geometric_mean, RunningStats};
use nocout_workloads::WorkloadClass;
use std::borrow::Cow;
use std::fmt::Write as _;

/// A declarative grid of simulation points: typed axes over a base
/// configuration, executed as one batch through a [`BatchRunner`].
///
/// See the [module docs](self) for the canonical expansion order.
#[derive(Debug, Clone)]
pub struct Campaign {
    base: ChipConfig,
    orgs: Option<Vec<Organization>>,
    variants: Option<Vec<(String, ChipConfig)>>,
    cores: Option<Vec<usize>>,
    link_bits: Option<Vec<u32>>,
    workloads: Vec<WorkloadClass>,
    seeds: SeedSet,
    window: MeasurementWindow,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// An empty campaign over the paper's Table 1 mesh baseline: no axes
    /// declared yet, a single seed, the default measurement window.
    pub fn new() -> Self {
        Campaign {
            base: ChipConfig::paper(Organization::Mesh),
            orgs: None,
            variants: None,
            cores: None,
            link_bits: None,
            workloads: Vec::new(),
            seeds: SeedSet::single(1),
            window: MeasurementWindow::default(),
        }
    }

    /// Sets the base configuration every derived point starts from; axes
    /// override individual fields on top of it. Also the single point of
    /// the configuration axis when [`Campaign::orgs`] /
    /// [`Campaign::variants`] are not declared.
    pub fn fixed(mut self, cfg: ChipConfig) -> Self {
        self.base = cfg;
        self
    }

    /// Declares the organization axis: one configuration per organization,
    /// derived from the base by swapping `organization`.
    ///
    /// # Panics
    ///
    /// Panics if [`Campaign::variants`] was also declared — the two are
    /// alternative spellings of the configuration axis.
    pub fn orgs(mut self, orgs: impl IntoIterator<Item = Organization>) -> Self {
        assert!(
            self.variants.is_none(),
            "a campaign's configuration axis is either orgs(..) or variants(..), not both"
        );
        self.orgs = Some(orgs.into_iter().collect());
        self
    }

    /// Declares an explicit configuration axis: labelled, fully-formed
    /// [`ChipConfig`]s for grids the typed axes cannot derive (fig9's
    /// per-organization link widths, the concentration/express ablations).
    /// Query results back by label ([`Sel::label`]) or by any chip field.
    ///
    /// # Panics
    ///
    /// Panics if [`Campaign::orgs`] was also declared.
    pub fn variants<L: Into<String>>(
        mut self,
        variants: impl IntoIterator<Item = (L, ChipConfig)>,
    ) -> Self {
        assert!(
            self.orgs.is_none(),
            "a campaign's configuration axis is either orgs(..) or variants(..), not both"
        );
        self.variants = Some(
            variants
                .into_iter()
                .map(|(l, c)| (l.into(), c))
                .collect(),
        );
        self
    }

    /// Declares the core-count axis (overrides `chip.cores`).
    pub fn cores(mut self, cores: impl IntoIterator<Item = usize>) -> Self {
        self.cores = Some(cores.into_iter().collect());
        self
    }

    /// Declares the link-width axis in bits (overrides
    /// `chip.link_width_bits`).
    pub fn link_bits(mut self, bits: impl IntoIterator<Item = u32>) -> Self {
        self.link_bits = Some(bits.into_iter().collect());
        self
    }

    /// Declares the workload axis. Synthetic profiles and `trace:PATH`
    /// classes mix freely ([`WorkloadClass`]).
    pub fn workloads<W: Into<WorkloadClass>>(
        mut self,
        workloads: impl IntoIterator<Item = W>,
    ) -> Self {
        self.workloads = workloads.into_iter().map(Into::into).collect();
        self
    }

    /// Declares the seed axis (innermost). Seed-insensitive points (trace
    /// replay) collapse to the first seed at execution time.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    /// Sets the warmup/measurement window shared by every point.
    pub fn window(mut self, window: MeasurementWindow) -> Self {
        self.window = window;
        self
    }

    /// Expands the declared axes into grid points in the canonical order
    /// (see the [module docs](self)). The seed axis is not part of the
    /// point list — it replicates each point at execution time.
    ///
    /// # Panics
    ///
    /// Panics if no workload was declared.
    pub fn expand(&self) -> Vec<CampaignPoint> {
        assert!(
            !self.workloads.is_empty(),
            "campaign declares no workloads — call .workloads(..) before expanding"
        );
        let configs: Vec<(Option<String>, ChipConfig)> = match (&self.variants, &self.orgs) {
            (Some(vs), _) => vs
                .iter()
                .map(|(l, c)| (Some(l.clone()), *c))
                .collect(),
            (None, Some(orgs)) => orgs
                .iter()
                .map(|&o| {
                    let mut c = self.base;
                    c.organization = o;
                    (None, c)
                })
                .collect(),
            (None, None) => vec![(None, self.base)],
        };
        let cores: &[usize] = self.cores.as_deref().unwrap_or(&[]);
        let link_bits: &[u32] = self.link_bits.as_deref().unwrap_or(&[]);
        let mut points = Vec::new();
        for (ci, (label, cfg)) in configs.iter().enumerate() {
            for (ni, cores_v) in iter_or_unit(cores) {
                for (li, bits_v) in iter_or_unit(link_bits) {
                    let mut chip = *cfg;
                    if let Some(n) = cores_v {
                        chip.cores = n;
                    }
                    if let Some(b) = bits_v {
                        chip.link_width_bits = b;
                    }
                    for (wi, workload) in self.workloads.iter().enumerate() {
                        points.push(CampaignPoint {
                            label: label.clone(),
                            chip,
                            workload: workload.clone(),
                            coord: Coord {
                                config: ci,
                                cores: ni,
                                links: li,
                                workload: wi,
                            },
                        });
                    }
                }
            }
        }
        points
    }

    /// The full expansion down to individual [`RunSpec`]s, in execution
    /// order: the canonical point order with the (collapsed) seed axis
    /// innermost. This is exactly what [`Campaign::run`] submits to the
    /// runner — both build the same [`Campaign::plan`] — and what tests
    /// use to pin cache-key coverage.
    pub fn specs(&self) -> Vec<RunSpec> {
        self.plan().1
    }

    /// The single execution plan: expanded points, the flat spec
    /// sequence, and how many consecutive specs belong to each point.
    /// [`Campaign::specs`] and [`Campaign::run`] both derive from this,
    /// so the published spec sequence cannot drift from what actually
    /// executes.
    fn plan(&self) -> (Vec<CampaignPoint>, Vec<RunSpec>, Vec<usize>) {
        let points = self.expand();
        let mut specs = Vec::new();
        let mut per_point_runs = Vec::with_capacity(points.len());
        for p in &points {
            let before = specs.len();
            specs.extend(self.point_seeds(p).map(|seed| RunSpec {
                chip: p.chip,
                workload: p.workload.clone(),
                window: self.window,
                seed,
            }));
            per_point_runs.push(specs.len() - before);
        }
        (points, specs, per_point_runs)
    }

    /// The seeds a single point actually runs: the declared seed axis for
    /// seed-sensitive workloads, its first element otherwise (the shared
    /// collapsing rule of [`crate::runner::replication_seeds`]).
    fn point_seeds<'a>(&'a self, point: &CampaignPoint) -> impl Iterator<Item = u64> + 'a {
        let runs = if point.workload.is_seed_sensitive() {
            self.seeds.len()
        } else {
            1
        };
        self.seeds.iter().take(runs)
    }

    /// Executes the whole grid as one batch on `runner` — every point ×
    /// seed in a single [`BatchRunner::run_batch_outcomes`] call, so a
    /// figure's full grid parallelizes across `--jobs` workers and
    /// memoizes through `--cache`, exactly as the hand-rolled point
    /// vectors did — and folds the per-seed results into a queryable
    /// [`ResultFrame`].
    ///
    /// Per point, replication statistics accumulate in seed order: the
    /// frame's `ipc`/`ci95`/`metrics` are bit-identical to serial
    /// [`crate::runner::run_replicated`] calls, at any worker count.
    ///
    /// Failure is per point, not per campaign: a spec whose simulation
    /// panics lands in the frame's failed-point set
    /// ([`ResultFrame::failed`]) while every other point completes.
    ///
    /// # Panics
    ///
    /// Panics if no workload was declared or the seed axis is empty.
    pub fn run(&self, runner: &BatchRunner) -> ResultFrame {
        self.run_on(runner)
    }

    /// [`Campaign::run`] over any [`CampaignExecutor`] — the local
    /// [`BatchRunner`] pool or the sharded multi-process driver
    /// ([`crate::distribute::ShardedDriver`]). Executors are required to
    /// be bit-identical for successful points, so the folded frame does
    /// not depend on where the points ran.
    ///
    /// # Panics
    ///
    /// Panics if no workload was declared or the seed axis is empty.
    pub fn run_on<E: CampaignExecutor + ?Sized>(&self, exec: &E) -> ResultFrame {
        assert!(!self.seeds.is_empty(), "campaign needs at least one seed");
        let (points, specs, per_point_runs) = self.plan();
        let all = exec.execute(&specs);
        let mut off = 0;
        let mut results = Vec::new();
        let mut failed = Vec::new();
        for (p, runs) in points.into_iter().zip(per_point_runs) {
            let per_seed = &all[off..off + runs];
            let seeds: Vec<u64> = specs[off..off + runs].iter().map(|s| s.seed).collect();
            off += runs;
            // A point is its replication fold; if any seed failed the
            // fold would misrepresent the declared seed axis, so the
            // whole point degrades into the failed set (successful seeds
            // stay memoized in the cache for the retry).
            if let Some((i, err)) = per_seed
                .iter()
                .enumerate()
                .find_map(|(i, o)| o.as_ref().err().map(|e| (i, e)))
            {
                failed.push(FailedPoint {
                    label: p.label,
                    chip: p.chip,
                    workload: p.workload,
                    seed: seeds[i],
                    error: err.message.clone(),
                });
                continue;
            }
            let mut stats = RunningStats::new();
            let mut last = None;
            for m in per_seed.iter().map(|o| o.as_ref().expect("checked above")) {
                stats.record(m.aggregate_ipc());
                last = Some(m);
            }
            results.push(PointResult {
                label: p.label,
                chip: p.chip,
                workload: p.workload,
                seeds_run: runs,
                ipc: stats.mean(),
                ci95: stats.ci95_half_width(),
                metrics: last.expect("non-empty replication").clone(),
                coord: p.coord,
            });
        }
        ResultFrame {
            workloads: self.workloads.clone(),
            points: results,
            failed,
        }
    }
}

/// Anything that can execute a campaign's spec sequence: the local
/// [`BatchRunner`] pool, or the multi-process sharded driver
/// ([`crate::distribute::ShardedDriver`]). Implementations must return
/// exactly one outcome per spec, in spec order, and successful outcomes
/// must be bit-identical to [`crate::runner::run`] on the same spec —
/// the executor chooses *where and when* points run, never *what* they
/// compute.
pub trait CampaignExecutor {
    /// Executes every spec, returning outcomes keyed by spec index.
    fn execute(&self, specs: &[RunSpec]) -> Vec<PointOutcome>;
}

impl CampaignExecutor for BatchRunner {
    fn execute(&self, specs: &[RunSpec]) -> Vec<PointOutcome> {
        self.run_batch_outcomes(specs)
    }
}

/// `axis` as an indexed override axis: a single no-override coordinate
/// when the axis is not declared.
fn iter_or_unit<T: Copy>(axis: &[T]) -> Box<dyn Iterator<Item = (usize, Option<T>)> + '_> {
    if axis.is_empty() {
        Box::new(std::iter::once((0, None)))
    } else {
        Box::new(axis.iter().enumerate().map(|(i, &v)| (i, Some(v))))
    }
}

/// Canonical axis coordinates of one grid point (indices into the
/// declared axes; undeclared axes contribute a constant 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Coord {
    config: usize,
    cores: usize,
    links: usize,
    workload: usize,
}

impl Coord {
    /// Same position on every axis except the configuration axis — the
    /// grouping normalization uses to find each point's baseline.
    fn same_cell(&self, other: &Coord) -> bool {
        self.cores == other.cores
            && self.links == other.links
            && self.workload == other.workload
    }
}

/// One expanded (but not yet executed) grid point.
#[derive(Debug, Clone)]
pub struct CampaignPoint {
    /// Variant label when the configuration axis is explicit.
    pub label: Option<String>,
    /// The fully-derived chip configuration.
    pub chip: ChipConfig,
    /// The workload class at this point.
    pub workload: WorkloadClass,
    coord: Coord,
}

/// One measured grid point: its coordinates plus the replicated result.
#[derive(Debug, Clone)]
pub struct PointResult {
    /// Variant label when the configuration axis is explicit.
    pub label: Option<String>,
    /// The chip configuration that ran.
    pub chip: ChipConfig,
    /// The workload class that ran.
    pub workload: WorkloadClass,
    /// Seed replications actually performed (1 for seed-insensitive
    /// workloads regardless of the seed axis).
    pub seeds_run: usize,
    /// Mean aggregate IPC across seeds.
    pub ipc: f64,
    /// 95% confidence half-width of the mean.
    pub ci95: f64,
    /// Full metrics of the last seed (activity, latencies, LLC stats).
    pub metrics: SystemMetrics,
    coord: Coord,
}

impl PointResult {
    fn describe(&self) -> String {
        let mut s = format!("{} / {}", self.chip.organization, self.workload);
        if let Some(l) = &self.label {
            s = format!("[{l}] {s}");
        }
        let _ = write!(
            s,
            " / {} cores / {}-bit links",
            self.chip.cores, self.chip.link_width_bits
        );
        s
    }
}

/// One grid point that failed to produce metrics: its coordinates plus
/// the failure cause. Lives on [`ResultFrame::failed`] so a partially
/// failed campaign degrades into an explicit, queryable failure set
/// instead of an aborted run.
#[derive(Debug, Clone)]
pub struct FailedPoint {
    /// Variant label when the configuration axis is explicit.
    pub label: Option<String>,
    /// The chip configuration of the failed point.
    pub chip: ChipConfig,
    /// The workload class of the failed point.
    pub workload: WorkloadClass,
    /// The first seed whose run failed.
    pub seed: u64,
    /// The failure cause (panic message or transport failure).
    pub error: String,
}

impl std::fmt::Display for FailedPoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.describe())
    }
}

impl FailedPoint {
    fn describe(&self) -> String {
        let mut s = format!("{} / {}", self.chip.organization, self.workload);
        if let Some(l) = &self.label {
            s = format!("[{l}] {s}");
        }
        let _ = write!(
            s,
            " / {} cores / {}-bit links / seed {}: {}",
            self.chip.cores, self.chip.link_width_bits, self.seed, self.error
        );
        s
    }
}

/// Results of a campaign, keyed by their axis coordinates.
///
/// Points are stored in the canonical expansion order
/// ([`ResultFrame::results`]); the query helpers ([`ResultFrame::get`],
/// [`ResultFrame::at`], [`ResultFrame::normalize_to`]) replace the
/// flat-index arithmetic the experiment binaries used to hand-roll.
/// Points whose execution failed are carried separately
/// ([`ResultFrame::failed`]): queries that land on one panic naming the
/// failure instead of reporting a hole in the grid.
#[derive(Debug, Clone)]
pub struct ResultFrame {
    workloads: Vec<WorkloadClass>,
    points: Vec<PointResult>,
    failed: Vec<FailedPoint>,
}

impl ResultFrame {
    /// Every point in canonical expansion order.
    pub fn results(&self) -> &[PointResult] {
        &self.points
    }

    /// Every point that failed to execute, in canonical expansion order.
    /// Empty on a fully successful campaign.
    pub fn failed(&self) -> &[FailedPoint] {
        &self.failed
    }

    /// Whether every declared point produced metrics.
    pub fn is_complete(&self) -> bool {
        self.failed.is_empty()
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the frame holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The workload axis, in declared order.
    pub fn workloads(&self) -> &[WorkloadClass] {
        &self.workloads
    }

    /// Starts a coordinate query; chain axis filters and finish with
    /// [`Sel::one`], [`Sel::ipc`] or [`Sel::iter`].
    pub fn at(&self) -> Sel<'_> {
        Sel {
            frame: self,
            org: None,
            workload: None,
            cores: None,
            link_bits: None,
            label: None,
        }
    }

    /// The unique point at (organization, workload) — the common query of
    /// the figure binaries.
    ///
    /// # Panics
    ///
    /// Panics if no point or more than one point matches (e.g. a multi-
    /// width sweep needs [`ResultFrame::at`] with
    /// [`Sel::link_bits`] too).
    pub fn get(
        &self,
        org: Organization,
        workload: impl Into<WorkloadClass>,
    ) -> &PointResult {
        self.at().org(org).workload(workload).one()
    }

    /// Normalizes every point's mean IPC to the point of `baseline`'s
    /// organization in the same grid cell (same cores / link-width /
    /// workload coordinates). The paper's "normalized to mesh" figures
    /// are exactly this with `baseline = Organization::Mesh`.
    ///
    /// # Panics
    ///
    /// Panics if some cell has no unique baseline point.
    pub fn normalize_to(&self, baseline: Organization) -> NormalizedFrame {
        let values = self
            .points
            .iter()
            .map(|p| {
                let mut base = self
                    .points
                    .iter()
                    .filter(|b| b.chip.organization == baseline && b.coord.same_cell(&p.coord));
                let b = base.next().unwrap_or_else(|| {
                    panic!(
                        "normalize_to({baseline}): no {baseline} point shares a cell with {}",
                        p.describe()
                    )
                });
                assert!(
                    base.next().is_none(),
                    "normalize_to({baseline}): several {baseline} points share a cell with {}",
                    p.describe()
                );
                p.ipc / b.ipc
            })
            .collect();
        NormalizedFrame {
            baseline,
            frame: self.clone(),
            values,
        }
    }

    /// The frame as printable records: a header row naming the declared
    /// axes, then one row per point in canonical order.
    pub fn to_records(&self) -> Vec<Vec<String>> {
        let labelled = self.points.iter().any(|p| p.label.is_some());
        let mut header = Vec::new();
        if labelled {
            header.push("Variant".to_string());
        }
        header.extend(
            ["Organization", "Cores", "LinkBits", "Workload", "Seeds", "IPC", "CI95"]
                .map(String::from),
        );
        let mut records = vec![header];
        for p in &self.points {
            let mut row = Vec::new();
            if labelled {
                row.push(p.label.clone().unwrap_or_default());
            }
            row.extend([
                p.chip.organization.to_string(),
                p.chip.cores.to_string(),
                p.chip.link_width_bits.to_string(),
                p.workload.to_string(),
                p.seeds_run.to_string(),
                format!("{:.6}", p.ipc),
                format!("{:.6}", p.ci95),
            ]);
            records.push(row);
        }
        records
    }

    /// The frame rendered as CSV (fields escaped by [`csv_render`]).
    pub fn to_csv(&self) -> String {
        csv_render(&self.to_records())
    }
}

/// A coordinate query over a [`ResultFrame`]: every declared filter must
/// match. Undeclared filters match everything.
#[derive(Debug, Clone)]
pub struct Sel<'f> {
    frame: &'f ResultFrame,
    org: Option<Organization>,
    workload: Option<WorkloadClass>,
    cores: Option<usize>,
    link_bits: Option<u32>,
    label: Option<String>,
}

impl<'f> Sel<'f> {
    /// Filters on the chip's organization.
    pub fn org(mut self, org: Organization) -> Self {
        self.org = Some(org);
        self
    }

    /// Filters on the workload class (synthetic profile or trace).
    pub fn workload(mut self, workload: impl Into<WorkloadClass>) -> Self {
        self.workload = Some(workload.into());
        self
    }

    /// Filters on the chip's core count.
    pub fn cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Filters on the chip's link width.
    pub fn link_bits(mut self, bits: u32) -> Self {
        self.link_bits = Some(bits);
        self
    }

    /// Filters on the variant label (explicit configuration axis).
    pub fn label(mut self, label: impl Into<String>) -> Self {
        self.label = Some(label.into());
        self
    }

    fn matches_parts(
        &self,
        chip: &ChipConfig,
        workload: &WorkloadClass,
        label: Option<&str>,
    ) -> bool {
        self.org.is_none_or(|o| chip.organization == o)
            && self.cores.is_none_or(|n| chip.cores == n)
            && self.link_bits.is_none_or(|b| chip.link_width_bits == b)
            && self.workload.as_ref().is_none_or(|w| *workload == *w)
            && self
                .label
                .as_ref()
                .is_none_or(|l| label == Some(l.as_str()))
    }

    fn matches(&self, p: &PointResult) -> bool {
        self.matches_parts(&p.chip, &p.workload, p.label.as_deref())
    }

    /// Failed points this query would have matched — what turns a silent
    /// "no point matches" into a named failure.
    fn matching_failures(&self) -> Vec<&'f FailedPoint> {
        self.frame
            .failed
            .iter()
            .filter(|f| self.matches_parts(&f.chip, &f.workload, f.label.as_deref()))
            .collect()
    }

    fn describe(&self) -> String {
        let mut parts = Vec::new();
        if let Some(l) = &self.label {
            parts.push(format!("label={l}"));
        }
        if let Some(o) = self.org {
            parts.push(format!("org={o}"));
        }
        if let Some(n) = self.cores {
            parts.push(format!("cores={n}"));
        }
        if let Some(b) = self.link_bits {
            parts.push(format!("link_bits={b}"));
        }
        if let Some(w) = &self.workload {
            parts.push(format!("workload={w}"));
        }
        if parts.is_empty() {
            "<unfiltered>".to_string()
        } else {
            parts.join(" ")
        }
    }

    /// Every matching point, in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = &'f PointResult> + '_ {
        self.frame.points.iter().filter(move |p| self.matches(p))
    }

    /// The single matching point.
    ///
    /// # Panics
    ///
    /// Panics — naming the query — if no point or more than one point
    /// matches. When a point the query would have matched is in the
    /// frame's failed set, the message names that point and its failure
    /// cause instead of claiming the point does not exist.
    pub fn one(&self) -> &'f PointResult {
        let mut it = self.iter();
        let first = it.next().unwrap_or_else(|| {
            let failures = self.matching_failures();
            if let Some(f) = failures.first() {
                panic!(
                    "campaign point matching {} failed to execute ({} matching \
                     failure{}): {}",
                    self.describe(),
                    failures.len(),
                    if failures.len() == 1 { "" } else { "s" },
                    f.describe()
                );
            }
            panic!("no campaign point matches {}", self.describe())
        });
        if let Some(second) = it.next() {
            panic!(
                "query {} is ambiguous: matches {} and {}{}",
                self.describe(),
                first.describe(),
                second.describe(),
                if it.next().is_some() { " (and more)" } else { "" }
            );
        }
        first
    }

    /// Mean IPC of the single matching point.
    ///
    /// # Panics
    ///
    /// Panics if the match is not unique.
    pub fn ipc(&self) -> f64 {
        self.one().ipc
    }

    /// Open-loop service-latency summary (arrival to completion) of the
    /// single matching point; all-zero for closed-loop workloads.
    ///
    /// # Panics
    ///
    /// Panics if the match is not unique.
    pub fn request_tail(&self) -> TailSummary {
        self.one().metrics.request_latency
    }
}

/// A [`ResultFrame`] view with every point's mean IPC divided by its
/// cell's baseline-organization point (see
/// [`ResultFrame::normalize_to`]).
#[derive(Debug, Clone)]
pub struct NormalizedFrame {
    baseline: Organization,
    frame: ResultFrame,
    /// Normalized value per point, parallel to `frame.points`.
    values: Vec<f64>,
}

impl NormalizedFrame {
    /// The baseline organization (whose points are all exactly 1.0).
    pub fn baseline(&self) -> Organization {
        self.baseline
    }

    /// Normalized value of the unique (organization, workload) point.
    ///
    /// # Panics
    ///
    /// Panics if the match is not unique.
    pub fn get(&self, org: Organization, workload: impl Into<WorkloadClass>) -> f64 {
        let sel = self.frame.at().org(org).workload(workload);
        let matches: Vec<usize> = self
            .frame
            .points
            .iter()
            .enumerate()
            .filter(|(_, p)| sel.matches(p))
            .map(|(i, _)| i)
            .collect();
        match matches.as_slice() {
            [i] => self.values[*i],
            [] => {
                if let Some(f) = sel.matching_failures().first() {
                    panic!(
                        "campaign point matching {} failed to execute: {}",
                        sel.describe(),
                        f.describe()
                    );
                }
                panic!("no campaign point matches {}", sel.describe())
            }
            _ => panic!("query {} is ambiguous", sel.describe()),
        }
    }

    /// `org`'s normalized values across the workload axis, in declared
    /// workload order — the per-workload series of a Fig. 7-style bar
    /// group.
    ///
    /// # Panics
    ///
    /// Panics if the frame holds more than one point per (org, workload)
    /// — normalize a single sweep slice at a time.
    pub fn series(&self, org: Organization) -> Vec<f64> {
        self.frame
            .workloads
            .iter()
            .map(|w| self.get(org, w.clone()))
            .collect()
    }

    /// Geometric mean of `org`'s normalized values over the workload axis
    /// — the figures' "GMean" aggregate.
    pub fn geomean(&self, org: Organization) -> f64 {
        geometric_mean(&self.series(org))
    }
}

/// Escapes one CSV field (RFC 4180): fields containing commas, quotes or
/// line breaks are double-quoted, with embedded quotes doubled. This is
/// the *one* escaping path — `nocout_experiments::write_csv` and
/// [`ResultFrame::to_csv`] both render through [`csv_render`].
pub fn csv_escape(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

/// Renders records as CSV text, escaping every field through
/// [`csv_escape`].
pub fn csv_render(records: &[Vec<String>]) -> String {
    let mut out = String::new();
    for rec in records {
        let mut first = true;
        for field in rec {
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&csv_escape(field));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use nocout_workloads::Workload;

    fn fast_campaign() -> Campaign {
        Campaign::new()
            .orgs([Organization::Mesh, Organization::NocOut])
            .workloads([Workload::WebSearch, Workload::MapReduceC])
            .window(MeasurementWindow::fast())
    }

    #[test]
    fn expansion_follows_canonical_nesting() {
        let c = Campaign::new()
            .workloads([Workload::WebSearch, Workload::MapReduceC])
            .orgs([Organization::Mesh, Organization::NocOut])
            .cores([16, 64]);
        let points = c.expand();
        assert_eq!(points.len(), 8);
        // Config outermost, then cores, workload innermost.
        assert_eq!(points[0].chip.organization, Organization::Mesh);
        assert_eq!(points[0].chip.cores, 16);
        assert_eq!(points[0].workload, Workload::WebSearch.into());
        assert_eq!(points[1].workload, Workload::MapReduceC.into());
        assert_eq!(points[2].chip.cores, 64);
        assert_eq!(points[4].chip.organization, Organization::NocOut);
    }

    #[test]
    fn declaration_order_does_not_change_expansion() {
        let a = Campaign::new()
            .orgs([Organization::Mesh, Organization::NocOut])
            .cores([16, 64])
            .workloads([Workload::WebSearch]);
        let b = Campaign::new()
            .workloads([Workload::WebSearch])
            .cores([16, 64])
            .orgs([Organization::Mesh, Organization::NocOut]);
        let keys = |c: &Campaign| -> Vec<String> {
            c.specs().iter().map(|s| s.cache_key()).collect()
        };
        assert_eq!(keys(&a), keys(&b));
    }

    #[test]
    fn undeclared_axes_fall_back_to_the_base() {
        let base = ChipConfig::paper(Organization::FlattenedButterfly);
        let points = Campaign::new()
            .fixed(base)
            .workloads([Workload::SatSolver])
            .expand();
        assert_eq!(points.len(), 1);
        assert_eq!(points[0].chip, base);
        assert!(points[0].label.is_none());
    }

    #[test]
    fn variants_carry_labels_and_full_configs() {
        let mut narrow = ChipConfig::paper(Organization::Mesh);
        narrow.link_width_bits = 32;
        let points = Campaign::new()
            .variants([("narrow mesh", narrow), ("nocout", ChipConfig::paper(Organization::NocOut))])
            .workloads([Workload::WebSearch])
            .expand();
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].label.as_deref(), Some("narrow mesh"));
        assert_eq!(points[0].chip.link_width_bits, 32);
        assert_eq!(points[1].chip.organization, Organization::NocOut);
    }

    #[test]
    #[should_panic(expected = "not both")]
    fn orgs_and_variants_are_mutually_exclusive() {
        let _ = Campaign::new()
            .orgs([Organization::Mesh])
            .variants([("x", ChipConfig::paper(Organization::NocOut))]);
    }

    #[test]
    #[should_panic(expected = "no workloads")]
    fn expanding_without_workloads_panics() {
        let _ = Campaign::new().orgs([Organization::Mesh]).expand();
    }

    #[test]
    fn seed_axis_replicates_sensitive_points_only() {
        let c = Campaign::new()
            .workloads([Workload::WebSearch])
            .seeds([1, 2, 3]);
        assert_eq!(c.specs().len(), 3);
        assert_eq!(
            c.specs().iter().map(|s| s.seed).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn frame_queries_and_normalization() {
        let frame = fast_campaign().run(&BatchRunner::serial());
        assert_eq!(frame.len(), 4);
        let mesh = frame.get(Organization::Mesh, Workload::WebSearch);
        assert!(mesh.ipc > 0.0);
        assert_eq!(mesh.chip.organization, Organization::Mesh);
        let norm = frame.normalize_to(Organization::Mesh);
        assert_eq!(norm.get(Organization::Mesh, Workload::WebSearch), 1.0);
        let expected = frame.get(Organization::NocOut, Workload::WebSearch).ipc
            / frame.get(Organization::Mesh, Workload::WebSearch).ipc;
        assert_eq!(
            norm.get(Organization::NocOut, Workload::WebSearch).to_bits(),
            expected.to_bits()
        );
        // geomean over the two workloads matches the direct computation.
        let series = norm.series(Organization::NocOut);
        assert_eq!(series.len(), 2);
        assert_eq!(
            norm.geomean(Organization::NocOut).to_bits(),
            geometric_mean(&series).to_bits()
        );
        assert_eq!(norm.geomean(Organization::Mesh), 1.0);
    }

    #[test]
    #[should_panic(expected = "no campaign point matches")]
    fn missing_point_panics_with_query() {
        let frame = fast_campaign().run(&BatchRunner::serial());
        let _ = frame.get(Organization::IdealWire, Workload::WebSearch);
    }

    #[test]
    #[should_panic(expected = "ambiguous")]
    fn ambiguous_query_panics() {
        let frame = fast_campaign().run(&BatchRunner::serial());
        let _ = frame.at().org(Organization::Mesh).one();
    }

    #[test]
    fn frame_matches_replicated_serial_path() {
        let c = Campaign::new()
            .workloads([Workload::MapReduceW])
            .seeds([1, 2])
            .window(MeasurementWindow::fast());
        let frame = c.run(&BatchRunner::serial());
        let spec = RunSpec {
            chip: ChipConfig::paper(Organization::Mesh),
            workload: Workload::MapReduceW.into(),
            window: MeasurementWindow::fast(),
            seed: 1,
        };
        let r = crate::runner::run_replicated(&spec, &SeedSet::consecutive(1, 2));
        let p = &frame.results()[0];
        assert_eq!(p.ipc.to_bits(), r.mean_ipc.to_bits());
        assert_eq!(p.ci95.to_bits(), r.ci95.to_bits());
        assert_eq!(p.metrics.instructions, r.last.instructions);
        assert_eq!(p.seeds_run, 2);
    }

    #[test]
    fn failed_point_degrades_into_failed_set() {
        // One poisoned variant (NOC-Out at 24 cores trips the chip
        // constructor) among good ones: the campaign completes, the good
        // points fold normally, and the poisoned point lands in the
        // failed set with its cause.
        let frame = Campaign::new()
            .variants([
                ("good mesh", ChipConfig::with_cores(Organization::Mesh, 16)),
                ("poisoned", ChipConfig::with_cores(Organization::NocOut, 24)),
            ])
            .workloads([Workload::WebSearch])
            .window(MeasurementWindow::fast())
            .run(&BatchRunner::serial());
        assert_eq!(frame.len(), 1);
        assert!(!frame.is_complete());
        assert_eq!(frame.failed().len(), 1);
        let f = &frame.failed()[0];
        assert_eq!(f.label.as_deref(), Some("poisoned"));
        assert!(f.error.contains("NOC-Out requires"), "{}", f.error);
        assert!(frame.at().label("good mesh").one().ipc > 0.0);
    }

    #[test]
    fn query_on_failed_point_names_the_failure() {
        let frame = Campaign::new()
            .variants([
                ("good mesh", ChipConfig::with_cores(Organization::Mesh, 16)),
                ("poisoned", ChipConfig::with_cores(Organization::NocOut, 24)),
            ])
            .workloads([Workload::WebSearch])
            .window(MeasurementWindow::fast())
            .run(&BatchRunner::serial());
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            frame.at().label("poisoned").one()
        }))
        .unwrap_err();
        let msg = err
            .downcast_ref::<String>()
            .expect("panic carries a message")
            .clone();
        assert!(msg.contains("failed to execute"), "{msg}");
        assert!(msg.contains("NOC-Out requires"), "{msg}");
    }

    #[test]
    fn records_and_csv_render() {
        let frame = fast_campaign().run(&BatchRunner::serial());
        let records = frame.to_records();
        assert_eq!(records.len(), 1 + frame.len());
        assert_eq!(records[0][0], "Organization");
        let csv = frame.to_csv();
        assert!(csv.starts_with("Organization,Cores,"));
        assert_eq!(csv.lines().count(), 1 + frame.len());
    }

    #[test]
    fn csv_escaping_rules() {
        assert_eq!(csv_escape("plain"), "plain");
        assert_eq!(csv_escape("a,b"), "\"a,b\"");
        assert_eq!(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
        assert_eq!(csv_escape("two\nlines"), "\"two\nlines\"");
        let rendered = csv_render(&[vec!["a,b".into(), "c".into()]]);
        assert_eq!(rendered, "\"a,b\",c\n");
    }
}
