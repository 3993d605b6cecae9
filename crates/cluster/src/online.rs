//! Online Descender: incremental clustering of arriving traces.
//!
//! The paper: "For a new trace, Descender will update the environment,
//! merge or split the clusters based on the current clustering density.
//! If the new trace fails to become a core point, we will create a new
//! cluster with that trace as its sole member."
//!
//! The incremental rule implemented here:
//! * insert the (normalized) trace into the Ball-Tree;
//! * query its ρ-neighbourhood;
//! * if the neighbourhood reaches `min_size` the trace is a core point:
//!   it joins — and thereby *merges* — every cluster its neighbours
//!   belong to (union–find keeps merging O(α));
//! * otherwise it starts a singleton cluster.

use crate::descender::{z_normalize, DescenderParams};
use dbaugur_dtw::{BallTree, Distance};
use dbaugur_trace::Trace;

/// Union–find over cluster ids.
#[derive(Debug, Default)]
struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn make(&mut self) -> usize {
        let id = self.parent.len();
        self.parent.push(id);
        id
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]]; // path halving
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) -> usize {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra != rb {
            self.parent[rb] = ra;
        }
        ra
    }
}

/// Outcome of one budgeted [`OnlineDescender::maintain`] tick.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MaintenanceReport {
    /// Staged points folded into the index this tick.
    pub folded: usize,
    /// Staged points still waiting after the budget ran out.
    pub remaining: usize,
    /// Cluster unions performed while folding.
    pub merges: usize,
    /// True when the amortized Ball-Tree rebuild fired.
    pub rebuilt: bool,
}

/// Incremental Descender over a stream of traces.
pub struct OnlineDescender<D: Distance> {
    params: DescenderParams,
    tree: BallTree<D>,
    /// Raw cluster id per inserted trace (resolve through union–find).
    raw_cluster: Vec<usize>,
    uf: UnionFind,
    names: Vec<String>,
    inserts_since_rebuild: usize,
    sanitized: usize,
    /// Points admitted via [`assign`] but not yet folded into the index.
    ///
    /// [`assign`]: OnlineDescender::assign
    staged: std::collections::VecDeque<(Vec<f64>, String)>,
    /// One representative member index per canonical cluster, for the
    /// lower-bound-pruned nearest-centroid scan in [`assign`].
    ///
    /// [`assign`]: OnlineDescender::assign
    reps: Vec<usize>,
    reps_dirty: bool,
}

impl<D: Distance> OnlineDescender<D> {
    /// An empty online clusterer.
    pub fn new(params: DescenderParams, metric: D) -> Self {
        Self {
            params,
            tree: BallTree::build(Vec::new(), metric),
            raw_cluster: Vec::new(),
            uf: UnionFind::default(),
            names: Vec::new(),
            inserts_since_rebuild: 0,
            sanitized: 0,
            staged: std::collections::VecDeque::new(),
            reps: Vec::new(),
            reps_dirty: false,
        }
    }

    /// Number of traces inserted so far.
    pub fn len(&self) -> usize {
        self.raw_cluster.len()
    }

    /// True when nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.raw_cluster.is_empty()
    }

    /// Number of inserted traces that carried non-finite samples and had
    /// to be repaired before entering the index.
    pub fn sanitized(&self) -> usize {
        self.sanitized
    }

    /// Insert one trace and return the (canonical) cluster id it ends up
    /// in.
    ///
    /// Non-finite samples (NaN, ±∞) would poison every DTW distance the
    /// Ball-Tree computes against this point, silently corrupting cluster
    /// assignments forever after. They are repaired here — masked to NaN
    /// and linearly interpolated via [`dbaugur_trace::fill_gaps`] (an
    /// all-bad trace becomes all zeros) — and counted in [`sanitized`].
    ///
    /// [`sanitized`]: OnlineDescender::sanitized
    pub fn insert(&mut self, trace: &Trace) -> usize {
        let point = self.prepare(trace);
        let (cluster, _merges, _rebuilt) = self.admit(point, trace.name.clone());
        self.uf.find(cluster)
    }

    /// Sanitize and (optionally) z-normalize a trace into an index point.
    fn prepare(&mut self, trace: &Trace) -> Vec<f64> {
        let values: Vec<f64> = if trace.values().iter().all(|v| v.is_finite()) {
            trace.values().to_vec()
        } else {
            self.sanitized += 1;
            let masked: Vec<f64> =
                trace.values().iter().map(|&v| if v.is_finite() { v } else { f64::NAN }).collect();
            let mut repaired = Trace::query(trace.name.clone(), masked);
            dbaugur_trace::fill_gaps(&mut repaired);
            repaired.values().to_vec()
        };
        if self.params.normalize {
            z_normalize(&values)
        } else {
            values
        }
    }

    /// Full admission: ρ-neighbourhood, core-point rule, merges, rebuild.
    fn admit(&mut self, point: Vec<f64>, name: String) -> (usize, usize, bool) {
        let neighbors = self.tree.within(&point, self.params.rho);
        let idx = self.tree.insert(point);
        debug_assert_eq!(idx, self.raw_cluster.len());
        self.names.push(name);

        // Including the new trace itself in the neighbourhood count.
        let mut merges = 0;
        let cluster = if neighbors.len() + 1 >= self.params.min_size && !neighbors.is_empty() {
            // Core point: merge all neighbour clusters.
            let mut root = self.uf.find(self.raw_cluster[neighbors[0].0]);
            for &(n, _) in &neighbors[1..] {
                let other = self.uf.find(self.raw_cluster[n]);
                if other != root {
                    merges += 1;
                }
                root = self.uf.union(root, other);
            }
            root
        } else {
            // Sole-member cluster.
            self.uf.make()
        };
        self.raw_cluster.push(cluster);
        self.reps_dirty = true;

        // Amortized rebuild keeps the incrementally grown tree balanced.
        self.inserts_since_rebuild += 1;
        let mut rebuilt = false;
        if self.inserts_since_rebuild >= 64 {
            self.tree.rebuild();
            self.inserts_since_rebuild = 0;
            rebuilt = true;
        }
        (cluster, merges, rebuilt)
    }

    /// Cheap streaming admission: place the trace against the *current*
    /// clustering without touching the index.
    ///
    /// The point is compared against one representative per canonical
    /// cluster, skipping candidates whose [`Distance::lower_bound`]
    /// (LB_Kim / LB_Keogh for DTW) already exceeds the best distance so
    /// far, and abandoning exact computations early via
    /// [`Distance::dist_with_cutoff`]. Returns the nearest cluster
    /// within ρ, or `None` when the trace will open a new cluster.
    ///
    /// The point itself is staged — merges, splits, tree insertion and
    /// rebuilds are deferred to the next [`maintain`] tick, so per-event
    /// admission never pays for index restructuring. Until then the
    /// staged point is invisible to [`len`], [`clusters`] and later
    /// `assign` calls.
    ///
    /// [`maintain`]: OnlineDescender::maintain
    /// [`len`]: OnlineDescender::len
    /// [`clusters`]: OnlineDescender::clusters
    pub fn assign(&mut self, trace: &Trace) -> Option<usize> {
        let point = self.prepare(trace);
        self.refresh_reps();
        let mut cutoff = self.params.rho;
        let mut best: Option<usize> = None;
        {
            let metric = self.tree.metric();
            for &i in &self.reps {
                let cand = self.tree.point(i);
                if metric.lower_bound(&point, cand) > cutoff {
                    continue;
                }
                let d = metric.dist_with_cutoff(&point, cand, cutoff);
                if d <= cutoff {
                    cutoff = d;
                    best = Some(i);
                }
            }
        }
        self.staged.push_back((point, trace.name.clone()));
        best.map(|i| {
            let raw = self.raw_cluster[i];
            self.uf.find(raw)
        })
    }

    /// Staged points waiting for the next [`maintain`] tick.
    ///
    /// [`maintain`]: OnlineDescender::maintain
    pub fn staged_len(&self) -> usize {
        self.staged.len()
    }

    /// The staged points, oldest first: each trace's name beside the
    /// (sanitized, normalized) values that will enter the index.
    pub fn staged(&self) -> impl Iterator<Item = (&str, &[f64])> {
        self.staged.iter().map(|(point, name)| (name.as_str(), point.as_slice()))
    }

    /// Fold up to `budget` staged points through full admission, in
    /// arrival order. Each fold runs the same ρ-neighbourhood, merge and
    /// amortized-rebuild logic as [`insert`], so draining the stage
    /// reproduces the bulk path exactly.
    ///
    /// [`insert`]: OnlineDescender::insert
    pub fn maintain(&mut self, budget: usize) -> MaintenanceReport {
        let mut report = MaintenanceReport::default();
        while report.folded < budget {
            let Some((point, name)) = self.staged.pop_front() else { break };
            let (_cluster, merges, rebuilt) = self.admit(point, name);
            report.folded += 1;
            report.merges += merges;
            report.rebuilt |= rebuilt;
        }
        report.remaining = self.staged.len();
        report
    }

    /// Recompute the per-cluster representative list when stale: the
    /// first-inserted member of each canonical cluster.
    fn refresh_reps(&mut self) {
        if !self.reps_dirty {
            return;
        }
        let mut seen = std::collections::HashSet::new();
        self.reps.clear();
        for i in 0..self.raw_cluster.len() {
            let root = self.uf.find(self.raw_cluster[i]);
            if seen.insert(root) {
                self.reps.push(i);
            }
        }
        self.reps_dirty = false;
    }

    /// Canonical cluster id of the `i`-th inserted trace.
    pub fn cluster_of(&mut self, i: usize) -> usize {
        let raw = self.raw_cluster[i];
        self.uf.find(raw)
    }

    /// Current clusters as lists of member indices, largest first.
    pub fn clusters(&mut self) -> Vec<Vec<usize>> {
        use std::collections::HashMap;
        let mut map: HashMap<usize, Vec<usize>> = HashMap::new();
        for i in 0..self.raw_cluster.len() {
            let c = self.cluster_of(i);
            map.entry(c).or_default().push(i);
        }
        let mut v: Vec<Vec<usize>> = map.into_values().collect();
        v.sort_by(|a, b| b.len().cmp(&a.len()).then(a[0].cmp(&b[0])));
        v
    }

    /// Name of the `i`-th inserted trace.
    pub fn name_of(&self, i: usize) -> &str {
        &self.names[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbaugur_dtw::DtwDistance;
    use dbaugur_trace::synth;
    use dbaugur_trace::Trace;

    fn sine(name: &str, phase: f64, n: usize) -> Trace {
        Trace::query(name, (0..n).map(|i| (i as f64 * 0.3 + phase).sin()).collect())
    }

    fn params(rho: f64, min_size: usize) -> DescenderParams {
        DescenderParams { rho, min_size, normalize: true }
    }

    #[test]
    fn first_trace_forms_singleton() {
        let mut od = OnlineDescender::new(params(1.0, 3), DtwDistance::new(4));
        let c = od.insert(&sine("a", 0.0, 24));
        assert_eq!(od.len(), 1);
        assert_eq!(od.clusters(), vec![vec![0]]);
        assert_eq!(od.cluster_of(0), c);
    }

    #[test]
    fn similar_traces_coalesce_once_dense() {
        let mut od = OnlineDescender::new(params(1.5, 3), DtwDistance::new(4));
        od.insert(&sine("a", 0.00, 24));
        od.insert(&sine("b", 0.01, 24));
        // Third similar trace reaches min_size => its neighbourhood merges.
        od.insert(&sine("c", 0.02, 24));
        let clusters = od.clusters();
        assert_eq!(clusters.len(), 1, "all three sines in one cluster: {clusters:?}");
        assert_eq!(clusters[0].len(), 3);
    }

    #[test]
    fn dissimilar_traces_stay_apart() {
        let mut od = OnlineDescender::new(params(0.8, 2), DtwDistance::new(3));
        od.insert(&sine("a", 0.0, 24));
        od.insert(&Trace::query("saw", (0..24).map(|i| (i % 5) as f64).collect()));
        assert_eq!(od.clusters().len(), 2);
    }

    #[test]
    fn online_matches_intuition_on_shifted_family() {
        let base = synth::bustracker(9, 1);
        let mut od = OnlineDescender::new(params(5.0, 2), DtwDistance::new(10));
        od.insert(&base);
        for k in 1..4 {
            od.insert(&synth::time_shift(&base, k * 2));
        }
        assert_eq!(od.clusters().len(), 1);
    }

    #[test]
    fn merge_bridges_two_groups() {
        // Two pairs at a gap; a middle trace merges them when min_size
        // permits.
        let n = 24;
        let make = |phase: f64| sine("t", phase, n);
        let mut od = OnlineDescender::new(params(1.2, 2), DtwDistance::new(6));
        od.insert(&make(0.0));
        od.insert(&make(0.05));
        od.insert(&make(1.2));
        od.insert(&make(1.25));
        let before = od.clusters().len();
        assert_eq!(before, 2);
        od.insert(&make(0.6)); // bridging trace (if within rho of both)
        let after = od.clusters().len();
        assert!(after <= before, "bridge can only merge, never split");
    }

    #[test]
    fn rebuild_amortization_does_not_lose_traces() {
        let mut od = OnlineDescender::new(params(0.5, 2), DtwDistance::new(2));
        for i in 0..150 {
            od.insert(&sine("t", i as f64 * 0.001, 16));
        }
        assert_eq!(od.len(), 150);
        let total: usize = od.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, 150);
    }

    #[test]
    fn non_finite_traces_are_sanitized_not_poisonous() {
        let mut od = OnlineDescender::new(params(1.5, 3), DtwDistance::new(4));
        od.insert(&sine("a", 0.00, 24));
        od.insert(&sine("b", 0.01, 24));
        // A sine with two samples blown out to NaN/∞: after interpolation
        // it is still essentially the same shape and must join the cluster
        // rather than wreck the index.
        let mut vals: Vec<f64> = sine("c", 0.02, 24).values().to_vec();
        vals[5] = f64::NAN;
        vals[11] = f64::INFINITY;
        od.insert(&Trace::query("c", vals));
        assert_eq!(od.sanitized(), 1);
        let clusters = od.clusters();
        assert_eq!(clusters.len(), 1, "sanitized trace clusters with its family: {clusters:?}");
        // Every later distance query still returns finite structure.
        od.insert(&sine("d", 0.03, 24));
        assert_eq!(od.clusters().len(), 1);
    }

    #[test]
    fn all_non_finite_trace_becomes_zero_singleton() {
        let mut od = OnlineDescender::new(params(0.5, 2), DtwDistance::new(2));
        od.insert(&sine("a", 0.0, 8));
        od.insert(&Trace::query("junk", vec![f64::NAN, f64::NEG_INFINITY, f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN, f64::NAN]));
        assert_eq!(od.sanitized(), 1);
        assert_eq!(od.len(), 2);
        // Nothing downstream panics and totals still add up.
        let total: usize = od.clusters().iter().map(|c| c.len()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    fn finite_traces_do_not_count_as_sanitized() {
        let mut od = OnlineDescender::new(params(1.0, 2), DtwDistance::new(2));
        od.insert(&sine("a", 0.0, 8));
        assert_eq!(od.sanitized(), 0);
    }

    #[test]
    fn names_are_tracked() {
        let mut od = OnlineDescender::new(params(1.0, 2), DtwDistance::new(2));
        od.insert(&sine("alpha", 0.0, 8));
        assert_eq!(od.name_of(0), "alpha");
    }

    #[test]
    fn assign_then_maintain_matches_insert_exactly() {
        let mut bulk = OnlineDescender::new(params(1.5, 3), DtwDistance::new(4));
        let mut stream = OnlineDescender::new(params(1.5, 3), DtwDistance::new(4));
        let traces: Vec<Trace> = (0..80)
            .map(|i| {
                if i % 3 == 0 {
                    Trace::query(format!("saw{i}"), (0..24).map(|j| ((i + j) % 5) as f64).collect())
                } else {
                    sine(&format!("s{i}"), i as f64 * 0.01, 24)
                }
            })
            .collect();
        for t in &traces {
            bulk.insert(t);
            stream.assign(t);
            // Interleave partial maintenance with admission, like a real
            // ingest loop would.
            stream.maintain(2);
        }
        stream.maintain(usize::MAX);
        assert_eq!(stream.staged_len(), 0);
        assert_eq!(bulk.len(), stream.len());
        assert_eq!(bulk.clusters(), stream.clusters(), "deferred folding changes nothing");
    }

    #[test]
    fn assign_routes_to_the_nearest_cluster_without_folding() {
        let mut od = OnlineDescender::new(params(1.5, 3), DtwDistance::new(4));
        for i in 0..3 {
            od.insert(&sine(&format!("s{i}"), i as f64 * 0.01, 24));
        }
        let sines = od.cluster_of(0);
        let hit = od.assign(&sine("probe", 0.015, 24));
        assert_eq!(hit, Some(sines), "a near-identical sine routes to the sine cluster");
        let miss = od.assign(&Trace::query("saw", (0..24).map(|i| (i % 5) as f64).collect()));
        assert_eq!(miss, None, "a foreign shape opens a new cluster at fold time");
        assert_eq!(od.len(), 3, "assign staged, never folded");
        assert_eq!(od.staged_len(), 2);
    }

    #[test]
    fn maintain_respects_its_budget() {
        let mut od = OnlineDescender::new(params(1.0, 2), DtwDistance::new(2));
        for i in 0..10 {
            od.assign(&sine(&format!("t{i}"), i as f64 * 0.001, 16));
        }
        let first = od.maintain(3);
        assert_eq!((first.folded, first.remaining), (3, 7));
        assert_eq!(od.len(), 3);
        let rest = od.maintain(usize::MAX);
        assert_eq!((rest.folded, rest.remaining), (7, 0));
        assert_eq!(od.len(), 10);
        // FIFO fold order keeps indices aligned with arrival order.
        for i in 0..10 {
            assert_eq!(od.name_of(i), format!("t{i}"));
        }
        let idle = od.maintain(5);
        assert_eq!(idle, MaintenanceReport { folded: 0, remaining: 0, merges: 0, rebuilt: false });
    }

    #[test]
    fn maintain_reports_deferred_merges() {
        let n = 24;
        let make = |phase: f64| sine("t", phase, n);
        let mut od = OnlineDescender::new(params(1.2, 2), DtwDistance::new(6));
        od.insert(&make(0.0));
        od.insert(&make(0.05));
        od.insert(&make(1.2));
        od.insert(&make(1.25));
        assert_eq!(od.clusters().len(), 2);
        od.assign(&make(0.6)); // bridging trace
        assert_eq!(od.clusters().len(), 2, "merge deferred until maintenance");
        let report = od.maintain(usize::MAX);
        assert_eq!(report.folded, 1);
        if od.clusters().len() == 1 {
            assert!(report.merges >= 1, "the bridge's union is accounted for");
        }
    }
}
