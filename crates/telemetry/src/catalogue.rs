//! The metric catalogue: every stage, counter, histogram, gauge and
//! trace-event name the workspace records, declared once.
//!
//! Each [`Entry`] holds a name, a [`Kind`], a unit and a help text. One
//! table produces both the `&'static str` constants call sites pass to
//! [`Telemetry::span`](crate::Telemetry::span),
//! [`add_counter`](crate::Telemetry::add_counter) and
//! [`record_value`](crate::Telemetry::record_value), and the [`ENTRIES`]
//! slice that [`crate::schema::validate_report`] (closed counter
//! namespaces) and [`crate::prom::render_exposition`] (HELP lines) read.
//! Recording never looks a name up: a constant is a plain string, so an
//! enabled sink records exactly as it would with a literal.
//!
//! Constant names are mechanical: the telemetry name upper-cased, with
//! every `.` turned into `_` (`serve.admission.client_depth` is
//! [`SERVE_ADMISSION_CLIENT_DEPTH`]).

/// What a catalogued name measures, and so which report section (or
/// trace) it appears in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A wall-time stage span (the report's `stages`).
    Stage,
    /// A monotone total (the report's `counters`).
    Counter,
    /// A log-bucketed distribution (the report's `histograms`).
    Histogram,
    /// A point-in-time value rendered only into `/metrics`.
    Gauge,
    /// A `Tree`-scope structured trace event (span or instant).
    Trace,
}

/// One catalogued telemetry name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// The name as recorded (`serve.run_ns`).
    pub name: &'static str,
    /// What the name measures.
    pub kind: Kind,
    /// Unit of the recorded values (a trace event's: of its argument).
    pub unit: &'static str,
    /// One-sentence description, without a final period.
    pub help: &'static str,
}

/// The catalogue entry for `name`, if it has one. A linear scan: for
/// validators and scrapes, never for the recording path.
pub fn lookup(name: &str) -> Option<&'static Entry> {
    ENTRIES.iter().find(|e| e.name == name)
}

macro_rules! catalogue {
    ($($kind:ident $id:ident = $name:literal, $unit:literal, $help:literal;)*) => {
        $(
            #[doc = concat!(stringify!($kind), " `", $name, "` (", $unit, "): ", $help, ".")]
            pub const $id: &str = $name;
        )*

        /// Every catalogued name, in declaration order.
        pub const ENTRIES: &[Entry] = &[
            $(Entry { name: $name, kind: Kind::$kind, unit: $unit, help: $help },)*
        ];

        #[cfg(test)]
        const IDENTS: &[&str] = &[$(stringify!($id),)*];
    };
}

catalogue! {
    // The end-to-end flow (`chortle::run_flow`), which `chortle-map`
    // and every daemon request run.
    Stage FLOW_PARSE = "flow.parse", "seconds", "BLIF parsing";
    Stage FLOW_OPTIMIZE = "flow.optimize", "seconds", "The MIS-style optimization script, when enabled";
    Stage FLOW_MAP = "flow.map", "seconds", "Technology mapping";
    Stage FLOW_VERIFY = "flow.verify", "seconds", "Functional equivalence verification, when enabled";
    Stage FLOW_RENDER = "flow.render", "seconds", "Serializing the mapped circuit";

    // The logic optimizer (`chortle-logic-opt`).
    Stage OPT_ELIMINATE = "opt.eliminate", "seconds", "Node elimination (MIS eliminate)";
    Stage OPT_MINIMIZE = "opt.minimize", "seconds", "Cheap per-node SOP minimization, both passes";
    Stage OPT_EXACT = "opt.exact", "seconds", "Exact two-level minimization, when enabled";
    Stage OPT_HEURISTIC = "opt.heuristic", "seconds", "Espresso-style heuristic minimization, when enabled";
    Stage OPT_KERNELS = "opt.kernels", "seconds", "Greedy kernel extraction";
    Stage OPT_CUBES = "opt.cubes", "seconds", "Greedy cube extraction";
    Stage OPT_FACTOR = "opt.factor", "seconds", "Factoring the SOP network back into an AND/OR network";
    Counter OPT_ELIMINATED = "opt.eliminated", "nodes", "Nodes eliminated by inlining";
    Counter OPT_EXTRACTED = "opt.extracted", "nodes", "Kernels and cubes extracted as new nodes";
    Counter OPT_LITERALS_SAVED = "opt.literals_saved", "literals", "SOP literals removed by the whole script";

    // The mapper (`chortle`). Every counter is a pure function of the
    // input network and the options, identical for every cache mode.
    Stage MAP_NORMALIZE = "map.normalize", "seconds", "Network normalization (Network::simplified)";
    Stage MAP_FOREST = "map.forest", "seconds", "Fanout-free forest construction";
    Stage MAP_SPLIT = "map.split", "seconds", "Wide-node pre-splitting";
    Stage MAP_CANON = "map.canon", "seconds", "Canonical reordering and renumbering of every tree, in every cache mode";
    Stage MAP_DP = "map.dp", "seconds", "The subset-DP mapping of every tree, in tree order";
    Stage MAP_EMIT = "map.emit", "seconds", "LUT-circuit reconstruction and emission";
    Stage MAP_PACK = "map.pack", "seconds", "The don't-care packing post-pass and its equivalence check (--pack dc only)";
    Counter MAP_NODES_SPLIT = "map.nodes_split", "nodes", "Wide tree nodes halved before mapping";
    Counter MAP_TREES = "map.trees", "trees", "Fanout-free trees in the mapped forest";
    Counter MAP_SINGLE_LUT_TREES = "map.single_lut_trees", "trees", "Trees with at most K leaf occurrences, mapped to one LUT without a cache key, a lookup or a DP solve";
    Counter MAP_TREES_AT_BOUND = "map.trees_at_bound", "trees", "DP trees whose LUT cost meets the counting lower bound ceil((L - 1)/(K - 1)) over their L leaf occurrences (area objective only)";
    Counter MAP_BOUND_GAP = "map.bound_gap", "LUTs", "LUTs above the counting lower bound, summed over the DP trees (area objective only)";
    Histogram MAP_TREE_NS = "map.tree_ns", "nanoseconds", "Per-tree mapping wall time";
    Trace MAP_TREE = "map.tree", "LUTs", "One tree's DP mapping: begin argument the tree's node count, end argument its LUT cost";
    Trace MAP_SINGLE_LUT = "map.single_lut", "LUTs", "The tree fits one LUT and skipped the DP";
    Counter PACK_DROPPED_INPUTS = "pack.dropped_inputs", "LUT inputs", "LUT inputs dropped by the don't-care packing post-pass (--pack dc only)";
    Counter PACK_REMOVED_LUTS = "pack.removed_luts", "LUTs", "Constant, buffer and duplicate LUTs removed by the packing post-pass (--pack dc only)";
    Counter DP_DIVISIONS = "dp.divisions", "utilization divisions", "Utilization divisions enumerated by the DP kernels";
    Counter DP_GROUP_BLOCKS = "dp.group_blocks", "blocks", "Intermediate-node blocks examined by the submask walks";
    Counter DP_PRUNED_WALKS = "dp.pruned_walks", "walks", "Submask walks skipped by the feasible-intermediate-node prune";
    Counter DP_TREE_NODES = "dp.tree_nodes", "nodes", "Tree nodes pushed through a DP kernel";
    Counter DP_SCRATCH_HITS = "dp.scratch_hits", "nodes", "Nodes served from the tree-local scratch high-water capacity";
    Counter DP_SCRATCH_GROWS = "dp.scratch_grows", "nodes", "Nodes that raised the tree-local scratch high-water mark";
    Histogram DP_TREE_WORK = "dp.tree_work", "utilization divisions", "Per-tree DP work, one sample per tree that went through the DP";
    Trace DP_SOLVE = "dp.solve", "LUTs", "The tree is the first occurrence of its cache key in tree order";
    Trace DP_REPLAY = "dp.replay", "LUTs", "The tree's cache key was seen earlier in tree order";

    // The DP-result cache, derived from the forest in tree order, so the
    // totals match for every cache mode (`--cache off` reports none).
    Counter CACHE_HITS = "cache.hits", "trees", "DP trees whose cache key (blind skeleton and leaf depths) was seen earlier in tree order";
    Counter CACHE_MISSES = "cache.misses", "trees", "DP trees whose cache key is the first of its kind in tree order";
    Counter CACHE_REPLAYED_LUTS = "cache.replayed_luts", "LUTs", "LUTs in the covers of the trees counted by cache.hits";

    // The sequential-design pipeline (`chortle::map_design`).
    Counter DESIGN_CLOUDS = "design.clouds", "clouds", "Combinational clouds cut from the sequential design and mapped";
    Counter DESIGN_LATCHES = "design.latches", "latches", "Latches in the flattened sequential design";
    Counter DESIGN_PASSTHROUGHS = "design.passthroughs", "sinks", "Outputs or latch inputs driven directly by an input or a constant, bypassing mapping";
    Counter DESIGN_CLOUD_LUTS = "design.cloud_luts", "LUTs", "LUTs across all mapped clouds of the design";
    Histogram DESIGN_CLOUD_WORK = "design.cloud_work", "gates", "Per-cloud gate count, clouds numbered in sink order";

    // The streaming BLIF reader.
    Counter BLIF_LOGICAL_LINES = "blif.logical_lines", "lines", "Logical (continuation-joined, comment-stripped) lines the reader consumed";
    Counter BLIF_MODELS = "blif.models", "models", ".model blocks in the parsed file";
    Counter BLIF_SUBCKTS = "blif.subckts", "instances", ".subckt instantiations expanded during flattening";
    Counter BLIF_LATCHES = "blif.latches", "latches", ".latch directives across all models";
    Counter BLIF_EXDC_BLOCKS = "blif.exdc_blocks", "blocks", ".exdc blocks skipped by the reader";
    Counter BLIF_SKIPPED_DIRECTIVES = "blif.skipped_directives", "directives", "Body-less metadata directives (.attr, .param, .cname, .clock, ...) skipped by the reader";

    // The daemon (`chortle-serve`).
    Counter SERVE_CONNECTIONS = "serve.connections", "connections", "TCP connections accepted (absent in --stdio mode)";
    Counter SERVE_ACCEPTED = "serve.accepted", "requests", "Map requests admitted to the queue, batch entries counted individually";
    Counter SERVE_COMPLETED = "serve.completed", "requests", "Map requests completed successfully";
    Counter SERVE_REJECTED_QUEUE_FULL = "serve.rejected_queue_full", "requests", "Map requests shed at admission, global queue_full and per-client over_quota together";
    Counter SERVE_REJECTED_DEADLINE = "serve.rejected_deadline", "requests", "Map requests whose deadline expired, queued or mid-map";
    Counter SERVE_REJECTED_BAD_REQUEST = "serve.rejected_bad_request", "requests", "Malformed requests (protocol or BLIF)";
    Counter SERVE_REJECTED_SHUTDOWN = "serve.rejected_shutdown", "requests", "Map requests refused during shutdown";
    Counter SERVE_DRAINED = "serve.drained", "requests", "Admitted requests completed after shutdown began";
    Counter SERVE_FLUSHES = "serve.flushes", "requests", "Warm-cache flush requests served";
    Counter SERVE_STATS_REQUESTS = "serve.stats_requests", "requests", "stats introspection requests served";
    Counter SERVE_TRACE_REQUESTS = "serve.trace_requests", "requests", "trace introspection requests served";
    Counter SERVE_METRICS_REQUESTS = "serve.metrics_requests", "requests", "Windowed metrics introspection requests served (v2)";
    Counter SERVE_HELLO_REQUESTS = "serve.hello_requests", "requests", "hello version-negotiation requests served (v2)";
    Counter SERVE_BATCH_FRAMES = "serve.batch_frames", "frames", "map_batch frames received (v2)";
    Counter SERVE_BATCH_REQUESTS = "serve.batch_requests", "requests", "Requests carried inside map_batch frames";
    Counter SERVE_COALESCED_FRAMES = "serve.coalesced_frames", "frames", "Response frames that shared a write with frames already buffered for the same connection";
    Counter SERVE_ADMISSION_ADMITTED = "serve.admission.admitted", "requests", "Offers admitted by the fair admission queue";
    Counter SERVE_ADMISSION_SHED_OVER_QUOTA = "serve.admission.shed_over_quota", "requests", "Offers shed because the client's quota was in use";
    Counter SERVE_ADMISSION_SHED_QUEUE_FULL = "serve.admission.shed_queue_full", "requests", "Offers shed because the global queue was at capacity";
    Counter SERVE_ADMISSION_HINTED = "serve.admission.hinted", "requests", "v2 rejections that carried a retry_after_ms hint";
    Stage SERVE_REQUEST = "serve.request", "seconds", "Wall time of each worker-executed request, queue wait excluded";
    Histogram SERVE_QUEUE_NS = "serve.queue_ns", "nanoseconds", "Time each admitted job waited in the queue before a worker picked it up";
    Histogram SERVE_RUN_NS = "serve.run_ns", "nanoseconds", "Time each job spent executing on its worker, echoed per response as run_ns";
    Histogram SERVE_ADMISSION_CLIENT_DEPTH = "serve.admission.client_depth", "requests", "The admitting client's queued plus in-flight depth at each successful admission";
    Gauge SERVE_UPTIME_S = "serve.uptime_s", "seconds", "Whole seconds since the daemon started (monotonic clock)";
    Gauge SERVE_QUEUE_DEPTH = "serve.queue_depth", "jobs", "Jobs queued at scrape time";
    Gauge SERVE_QUEUE_HIGH_WATER = "serve.queue_high_water", "jobs", "Deepest the admission queue has ever been";
    Gauge SERVE_TRACE_RING_DROPPED = "serve.trace_ring_dropped", "requests", "Completed-request traces evicted from the bounded op:\"trace\" ring";
    Gauge SERVE_WINDOW_QPS = "serve.window_qps", "requests per second", "Completed requests per second over the sliding window";
    Gauge SERVE_WINDOW_SHED_RATE = "serve.window_shed_rate", "ratio", "Shed fraction of admission attempts over the sliding window";
    Gauge SERVE_WINDOW_CACHE_HIT_RATE = "serve.window_cache_hit_rate", "ratio", "Warm-cache hit rate over the sliding window";

    // Observation echoes a tracing handle adds to its own report,
    // exempt from the workload-function guarantee.
    Counter TRACE_EVENTS = "trace.events", "events", "Trace events the handle captured";
    Counter TRACE_DROPPED = "trace.dropped", "events", "Trace events dropped at the handle's capacity";

    // Logging volume the structured logger mirrors into its counter sink
    // (`log::set_counter_sink`); observation echoes like `trace.*`.
    Counter LOG_EVENTS = "log.events", "events", "Log events emitted";
    Counter LOG_ERRORS = "log.errors", "events", "Log events at error level";
    Counter LOG_WARNINGS = "log.warnings", "events", "Log events at warn level";
    Counter LOG_RING_EVICTED = "log.ring_evicted", "lines", "Rendered lines evicted from the bounded crash-context ring";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_constants_mechanical() {
        assert_eq!(IDENTS.len(), ENTRIES.len());
        for (i, (e, id)) in ENTRIES.iter().zip(IDENTS).enumerate() {
            assert_eq!(e.name.to_uppercase().replace('.', "_"), *id);
            assert!(
                !ENTRIES[..i].iter().any(|p| p.name == e.name),
                "{} is declared twice",
                e.name
            );
            assert!(!e.unit.is_empty() && !e.help.is_empty(), "{}", e.name);
            assert!(
                !e.help.ends_with('.'),
                "{}: help ends without a period",
                e.name
            );
            assert_eq!(lookup(e.name), Some(e));
        }
        assert_eq!(lookup("dp.some_future_counter"), None);
    }

    #[test]
    fn stages_are_seconds_and_duration_histograms_nanoseconds() {
        for e in ENTRIES {
            match e.kind {
                Kind::Stage => assert_eq!(e.unit, "seconds", "{}", e.name),
                Kind::Histogram => {
                    assert_eq!(
                        e.name.ends_with("_ns"),
                        e.unit == "nanoseconds",
                        "{}",
                        e.name
                    )
                }
                _ => {}
            }
        }
    }
}
