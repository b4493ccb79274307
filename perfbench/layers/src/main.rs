//! Per-layer probe for perfbench's traced runs.
//!
//! Times calls into the public functions of each workspace crate — planning
//! and the engine in `pnoc-sim`, `pnoc-hier`, `pnoc-workload`, `pnoc-exec`,
//! `pnoc-store` and the render/parse code of `pnoc-bench` — from this
//! package's own code; nothing inside the program is instrumented. Every
//! timed call is a span (name, layer, start and end — or busy time for a
//! pool job — parent, workload, item) kept in memory and written as JSONL when the probe ends. The last stdout
//! line is one JSON object: the layer metrics, the check counts, and the
//! wall times of the in-process replay of the workload's round, with spans
//! recorded and with tracing off.
//!
//! ```text
//! perfbench-layers --workload NAME --matrix-doc F --collectives-doc F
//!     --bodies F --replay-doc F --replay-caches DIR --replay-pairs N
//!     --replay-out F --work DIR --spans F
//! ```

use pnoc_bench::runner::ensure_registered;
use pnoc_bench::scenario_io::{matrix_json, parse_scenarios};
use pnoc_sim::metrics::JsonlSink;
use pnoc_sim::scenario::{
    engine_fingerprint, point_cache_key, run_specs_with_cache, MatrixResult, PointCache,
    ScenarioSpec,
};
use pnoc_sim::sweep::{derive_point_seed, SweepPoint};
use pnoc_store::{codec, Json, ResultStore};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Mutex;
use std::time::Instant;

/// When a span ran: an interval on the probe thread (seconds since the
/// probe started), or the busy time of a pool job, whose start the engine
/// does not report.
enum When {
    Interval { start: f64, end: f64 },
    Busy(f64),
}

/// One timed call.
struct Span {
    name: String,
    layer: &'static str,
    item: String,
    parent: Option<usize>,
    when: When,
    /// Pool workers a batch span's jobs ran on.
    workers: Option<usize>,
}

/// In-memory span recorder; spans nest by call order on the probe thread,
/// and pool jobs are added under the open span. A disabled tracer records
/// nothing and reads no clock: the replay's untraced side.
struct Tracer {
    enabled: bool,
    origin: Instant,
    workload: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    fn new(workload: &str, enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            workload: workload.to_string(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Runs `f` inside a span and returns its result and duration (0 when
    /// the tracer is disabled).
    fn span<T>(
        &mut self,
        name: &str,
        layer: &'static str,
        item: &str,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> (T, f64) {
        if !self.enabled {
            return (f(self), 0.0);
        }
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            item: item.to_string(),
            parent: self.open.last().copied(),
            when: When::Interval { start, end: start },
            workers: None,
        });
        self.open.push(id);
        let value = f(self);
        self.open.pop();
        let end = self.now();
        self.spans[id].when = When::Interval { start, end };
        (value, end - start)
    }

    /// Adds a pool job of the batch span `batch` that was busy for `seconds`.
    fn job(&mut self, batch: usize, name: &str, layer: &'static str, item: &str, seconds: f64) {
        self.spans.push(Span {
            name: name.to_string(),
            layer,
            item: item.to_string(),
            parent: Some(batch),
            when: When::Busy(seconds),
            workers: None,
        });
    }

    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let when = match span.when {
                When::Interval { start, end } => format!("\"start\":{start:.9},\"end\":{end:.9}"),
                When::Busy(seconds) => format!("\"busy\":{seconds:.9}"),
            };
            let workers = span
                .workers
                .map_or(String::new(), |n| format!(",\"workers\":{n}"));
            writeln!(
                out,
                "{{\"src\":\"layers\",\"id\":{id},\"parent\":{parent},\"name\":{},\"layer\":\"{}\",\
                 \"workload\":{},\"item\":{},{when}{workers}}}",
                quote(&span.name),
                span.layer,
                quote(&self.workload),
                quote(&span.item),
            )
            .expect("writing to a String cannot fail");
        }
        std::fs::write(path, out)
    }
}

fn quote(text: &str) -> String {
    Json::str(text).render()
}

/// Checks made along the way; every failure is counted, none aborts.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
}

impl Checks {
    fn expect(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("[layers] check failed: {what}");
        }
    }
}

fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank quantile of `values` (0 for an empty slice).
fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Times `f` `reps` times and returns the median duration in seconds.
fn median_time(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

struct Args {
    workload: String,
    matrix_doc: PathBuf,
    collectives_doc: PathBuf,
    bodies: PathBuf,
    replay_doc: PathBuf,
    replay_caches: PathBuf,
    replay_pairs: usize,
    replay_out: PathBuf,
    work: PathBuf,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut values: BTreeMap<String, String> = BTreeMap::new();
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        values.insert(key.to_string(), value);
    }
    let mut need = |key: &str| values.remove(key).ok_or_else(|| format!("missing --{key}"));
    Ok(Args {
        workload: need("workload")?,
        matrix_doc: need("matrix-doc")?.into(),
        collectives_doc: need("collectives-doc")?.into(),
        bodies: need("bodies")?.into(),
        replay_doc: need("replay-doc")?.into(),
        replay_caches: need("replay-caches")?.into(),
        replay_pairs: need("replay-pairs")?
            .parse()
            .map_err(|e| format!("--replay-pairs: {e}"))?,
        replay_out: need("replay-out")?.into(),
        work: need("work")?.into(),
        spans: need("spans")?.into(),
    })
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()))
}

fn specs_of(path: &Path) -> Vec<ScenarioSpec> {
    parse_scenarios(&read(path)).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// One serve-style request: its class (`hit`, `miss` or `304`) and body.
struct Request {
    class: String,
    body: String,
}

fn requests_of(path: &Path) -> Vec<Request> {
    let doc = Json::parse(&read(path)).expect("request bodies file is JSON");
    doc.as_array()
        .expect("request bodies file is an array")
        .iter()
        .map(|item| Request {
            class: item
                .get("class")
                .and_then(Json::as_str)
                .expect("class")
                .to_string(),
            body: item
                .get("body")
                .and_then(Json::as_str)
                .expect("body")
                .to_string(),
        })
        .collect()
}

/// The layer a simulation of `spec` belongs to.
fn engine_layer(spec: &ScenarioSpec) -> &'static str {
    if spec.workload.is_some() {
        "pnoc-workload"
    } else if spec.architecture.starts_with("hier") {
        "pnoc-hier"
    } else {
        "pnoc-sim"
    }
}

/// A metric-name-safe label of a collective scenario, e.g. `shuffle-16` or
/// `hier-allreduce-64`.
fn collective_label(spec: &ScenarioSpec) -> String {
    let name = spec.workload.as_deref().unwrap_or("").replace(':', "-");
    if spec.architecture.starts_with("hier") {
        format!("hier-{name}")
    } else {
        name
    }
}

/// A cache that never hits and keeps the engine's own wall time of every
/// point job it is offered, by cache key: per-point times of the program's
/// real ladder path, with the program's point seeds.
#[derive(Default)]
struct PointTimes(Mutex<BTreeMap<String, f64>>);

impl PointCache for PointTimes {
    fn lookup(&self, _key: &str) -> Option<SweepPoint> {
        None
    }

    fn store(&self, key: &str, _point: &SweepPoint, wall_clock_seconds: f64) {
        self.0
            .lock()
            .expect("point times lock")
            .insert(key.to_string(), wall_clock_seconds);
    }
}

/// Runs `specs` through `run_specs_with_cache`, as `repro` does for a
/// batch, under one batch span with a job span per point. Returns the result,
/// each scenario's point times in ladder order, and the batch wall time.
fn run_timed(
    tracer: &mut Tracer,
    checks: &mut Checks,
    specs: &[ScenarioSpec],
) -> (MatrixResult, Vec<Vec<f64>>, f64) {
    let times = PointTimes::default();
    let ((result, batch), wall) = tracer.span("run_specs_with_cache", "pnoc-exec", "", |tracer| {
        let result = run_specs_with_cache(specs, Some(&times)).expect("probe specs run");
        (result, *tracer.open.last().expect("the batch span is open"))
    });
    let times = times.0.into_inner().expect("point times lock");
    let fingerprint = engine_fingerprint();
    let per_scenario: Vec<Vec<f64>> = result
        .scenarios
        .iter()
        .map(|scenario| {
            let id = scenario
                .spec
                .resolve()
                .expect("probe spec resolves")
                .canonical_id();
            scenario
                .spec
                .loads()
                .into_iter()
                .zip(&scenario.point_seeds)
                .map(|(load, &seed)| {
                    let key = point_cache_key(&id, seed, load, &fingerprint);
                    let seconds = times.get(&key).copied();
                    checks.expect(seconds.is_some(), &format!("point {key} was timed"));
                    seconds.unwrap_or(0.0)
                })
                .collect()
        })
        .collect();
    let points = per_scenario.iter().map(Vec::len).sum();
    tracer.spans[batch].workers = Some(pnoc_exec::resolve_worker_limit(points));
    for (spec, point_times) in specs.iter().zip(&per_scenario) {
        for (index, &busy) in point_times.iter().enumerate() {
            let item = format!("{}#load{index}", spec.id());
            tracer.job(batch, "point", engine_layer(spec), &item, busy);
        }
    }
    (result, per_scenario, wall)
}

type Metrics = BTreeMap<String, f64>;

fn probe_exec(tracer: &mut Tracer, metrics: &mut Metrics) {
    let (startup, _) = tracer.span("warm_up", "pnoc-exec", "", |_| pnoc_exec::warm_up());
    metrics.insert("exec.pool_startup_s".into(), startup);
    let jobs = vec![0u64; 100_000];
    let (per_batch, _) = tracer.span("dispatch", "pnoc-exec", "trivial-jobs", |_| {
        median_time(5, || {
            black_box(pnoc_exec::run_batch(&jobs, |i, x| black_box(i as u64 ^ *x)));
        })
    });
    metrics.insert(
        "exec.dispatch_ns_per_job".into(),
        per_batch / jobs.len() as f64 * 1e9,
    );
}

fn probe_planning(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    specs: &[ScenarioSpec],
    bodies: &[Request],
) {
    let fingerprint = engine_fingerprint();
    let mut resolve = Vec::new();
    let mut keys = Vec::new();
    tracer.span("plan", "pnoc-sim", "matrix", |_| {
        for spec in specs {
            resolve.push(median_time(5, || {
                black_box(spec.resolve().expect("matrix spec resolves"));
            }));
            let scenario = spec.resolve().expect("matrix spec resolves");
            for (index, load) in spec.loads().into_iter().enumerate() {
                let seed = derive_point_seed(spec.seed, index);
                keys.push(median_time(5, || {
                    let id = scenario.canonical_id();
                    black_box(point_cache_key(&id, seed, load, &fingerprint));
                }));
            }
        }
    });
    metrics.insert("plan.resolve_s".into(), median(&resolve));
    metrics.insert("plan.cache_key_s".into(), median(&keys));
    let (parse, _) = tracer.span("parse_scenarios", "pnoc-bench", "request-bodies", |_| {
        let times: Vec<f64> = bodies
            .iter()
            .map(|request| {
                median_time(5, || {
                    black_box(parse_scenarios(&request.body).expect("request body parses"));
                })
            })
            .collect();
        median(&times)
    });
    metrics.insert("server.parse_s".into(), parse);
}

/// Runs the matrix as `repro` does and times every point; returns the
/// result for the render and store probes.
fn probe_engine(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
    specs: &[ScenarioSpec],
) -> MatrixResult {
    let (matrix, times, wall) = run_timed(tracer, checks, specs);
    let busy: f64 = times.iter().flatten().sum();
    let points = times.iter().map(Vec::len).sum();
    let workers = pnoc_exec::resolve_worker_limit(points) as f64;
    metrics.insert("exec.batch_wall_s".into(), wall);
    metrics.insert("exec.job_busy_s".into(), busy);
    metrics.insert("exec.utilization".into(), busy / (wall * workers));
    metrics.insert("engine.points".into(), points as f64);

    let mut by_arch: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let mut by_load: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    let mut cell: BTreeMap<(String, String, usize), f64> = BTreeMap::new();
    for (spec, point_times) in specs.iter().zip(&times) {
        for (index, &seconds) in point_times.iter().enumerate() {
            let arch = spec.architecture.clone();
            by_arch.entry(arch.clone()).or_default().push(seconds);
            by_load.entry(index).or_default().push(seconds);
            let cell_id = format!("{}/{}", spec.traffic, spec.bandwidth_set.short_name());
            cell.insert((arch, cell_id, index), seconds);
        }
    }
    for (arch, times) in &by_arch {
        metrics.insert(format!("engine.point_s.{arch}"), median(times));
    }
    for (index, times) in &by_load {
        metrics.insert(format!("engine.point_s.load{index}"), median(times));
    }
    let ratios: Vec<f64> = cell
        .iter()
        .filter(|((arch, _, _), _)| arch == "hier")
        .filter_map(|((_, traffic, index), hier)| {
            cell.get(&("d-hetpnoc".to_string(), traffic.clone(), *index))
                .map(|leaf| hier / leaf)
        })
        .collect();
    metrics.insert(
        "hier.point_s".into(),
        median(by_arch.get("hier").map_or(&[][..], Vec::as_slice)),
    );
    metrics.insert("hier.overhead_ratio".into(), median(&ratios));
    matrix
}

fn probe_render(tracer: &mut Tracer, metrics: &mut Metrics, matrix: &MatrixResult) {
    let (seconds, _) = tracer.span("matrix_json", "pnoc-bench", "matrix", |_| {
        median_time(5, || {
            black_box(matrix_json(matrix).render());
        })
    });
    metrics.insert("render.matrix_json_s".into(), seconds);
}

/// Saves every matrix point into a fresh store, then loads each back twice
/// and returns the number of timed loads.
fn probe_store(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
    matrix: &MatrixResult,
    root: &Path,
) -> usize {
    let _ = std::fs::remove_dir_all(root);
    let store = ResultStore::open(root).expect("probe store opens");
    let fingerprint = engine_fingerprint();
    let mut entries = Vec::new();
    for scenario in &matrix.scenarios {
        let id = scenario
            .spec
            .resolve()
            .expect("matrix spec resolves")
            .canonical_id();
        for (point, &seed) in scenario.result.points.iter().zip(&scenario.point_seeds) {
            let key = point_cache_key(&id, seed, point.offered_load, &fingerprint);
            entries.push((key, point));
        }
    }
    let mut saves = Vec::new();
    tracer.span("save", "pnoc-store", "matrix", |tracer| {
        for (key, point) in &entries {
            let ((), seconds) = tracer.span("ResultStore::save", "pnoc-store", key, |_| {
                store.save(key, point, 0.0).expect("probe store writes");
            });
            saves.push(seconds);
        }
    });
    metrics.insert("store.save_s_p50".into(), median(&saves));

    // Two passes over every entry, so the p90 has at least ten samples
    // beyond it.
    let (mut loads, mut read, mut decode) = (Vec::new(), 0.0, 0.0);
    tracer.span("load", "pnoc-store", "matrix", |tracer| {
        for _pass in 0..2 {
            for (key, point) in &entries {
                let (loaded, seconds) =
                    tracer.span("ResultStore::load", "pnoc-store", key, |_| store.load(key));
                loads.push(seconds);
                checks.expect(
                    loaded.as_ref() == Some(*point),
                    "store load returns the saved point",
                );
                let path = root
                    .join("entries")
                    .join(format!("{}.json", pnoc_store::content_hash(key)));
                let (text, seconds) = tracer.span("read", "pnoc-store", key, |_| {
                    std::fs::read_to_string(&path).expect("entry file reads")
                });
                read += seconds;
                let (decoded, seconds) = tracer.span("decode", "pnoc-store", key, |_| {
                    let doc = Json::parse(&text).expect("entry is JSON");
                    codec::point_from_json(doc.get("point").expect("entry has a point"))
                });
                decode += seconds;
                checks.expect(
                    decoded.as_ref().ok() == Some(*point),
                    "entry decodes to the saved point",
                );
            }
        }
    });
    let load_total: f64 = loads.iter().sum();
    metrics.insert("store.load_s_p50".into(), quantile(&loads, 0.5));
    metrics.insert("store.load_s_p90".into(), quantile(&loads, 0.9));
    metrics.insert("store.read_s".into(), read);
    metrics.insert("store.decode_s".into(), decode);
    metrics.insert("store.rewrite_s".into(), load_total - read - decode);
    metrics.insert("store.entry_bytes".into(), store.total_bytes() as f64);
    let stats = store.stats();
    metrics.insert(
        "store.hit_ratio".into(),
        stats.hits as f64 / (stats.hits + stats.misses).max(1) as f64,
    );
    loads.len()
}

fn probe_workloads(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    checks: &mut Checks,
    specs: &[ScenarioSpec],
) {
    let labels: Vec<String> = specs.iter().map(collective_label).collect();
    let (resolve, _) = tracer.span("resolve", "pnoc-workload", "collectives", |tracer| {
        let mut total = 0.0;
        for (spec, label) in specs.iter().zip(&labels) {
            let (_, seconds) = tracer.span("ScenarioSpec::resolve", "pnoc-workload", label, |_| {
                black_box(spec.resolve().expect("collective spec resolves"))
            });
            total += seconds;
        }
        total
    });
    metrics.insert("workload.resolve_s".into(), resolve);
    let (result, times, _) = run_timed(tracer, checks, specs);
    let (mut cycles, mut busy) = (0.0, 0.0);
    for ((scenario, point_times), label) in result.scenarios.iter().zip(&times).zip(&labels) {
        let (point, seconds) = (&scenario.result.points[0], point_times[0]);
        checks.expect(
            point.metrics.gauge("workload_drained") == Some(1.0),
            &format!("{label} drains"),
        );
        cycles += point
            .metrics
            .gauge("workload_makespan_cycles")
            .unwrap_or(0.0);
        busy += seconds;
        metrics.insert(format!("workload.point_s.{label}"), seconds);
    }
    metrics.insert("workload.sim_cycles_per_s".into(), cycles / busy);
}

/// The workload's own round, in process: what `repro` does for a batch
/// (parse, run, render), or what the server does for each request of the
/// serve blocks, with `cache_dir` as its store. Returns the produced bytes.
fn replay(tracer: &mut Tracer, args: &Args, bodies: &[Request], cache_dir: &Path) -> Vec<u8> {
    let store = ResultStore::open(cache_dir).expect("replay store opens");
    let cache = Some(&store as &dyn PointCache);
    let (bytes, _) = tracer.span("replay", "perfbench", &args.workload, |tracer| {
        if args.workload == "serve" {
            let mut out = Vec::new();
            for (index, request) in bodies.iter().enumerate() {
                let item = format!("request{index}:{}", request.class);
                let (specs, _) = tracer.span("parse_scenarios", "pnoc-bench", &item, |_| {
                    parse_scenarios(&request.body).expect("request body parses")
                });
                if request.class == "304" {
                    tracer.span("resolve+canonical_id", "pnoc-sim", &item, |_| {
                        for spec in &specs {
                            black_box(spec.resolve().expect("spec resolves").canonical_id());
                        }
                    });
                    continue;
                }
                let (result, _) = tracer.span("run_specs_with_cache", "pnoc-sim", &item, |_| {
                    run_specs_with_cache(&specs, cache).expect("request specs run")
                });
                tracer.span("write_metrics", "pnoc-bench", &item, |_| {
                    result
                        .write_metrics(&mut JsonlSink::new(&mut out))
                        .expect("rows render into memory");
                });
            }
            out
        } else {
            let (specs, _) = tracer.span("parse_scenarios", "pnoc-bench", "doc", |_| {
                parse_scenarios(&read(&args.replay_doc)).expect("replay doc parses")
            });
            let (result, _) = tracer.span("run_specs_with_cache", "pnoc-sim", "doc", |_| {
                run_specs_with_cache(&specs, cache).expect("replay specs run")
            });
            let (text, _) = tracer.span("matrix_json", "pnoc-bench", "doc", |_| {
                matrix_json(&result).render() + "\n"
            });
            text.into_bytes()
        }
    });
    bytes
}

/// Replays the round in pairs, once with tracing off and once with spans
/// recorded, in the order off, on, on, off, repeated: a pass's place in the
/// sequence changes its time, so neither side may always run first. Each
/// pass runs on its own copy of the store
/// (`<replay-caches>/<pass>`, prepared by the caller). Every pass must give
/// the same bytes; they are written to `--replay-out`. Returns the median
/// wall time of the traced and of the untraced passes.
fn replay_pairs(
    tracer: &mut Tracer,
    checks: &mut Checks,
    args: &Args,
    bodies: &[Request],
) -> (f64, f64) {
    let (mut traced, mut untraced) = (Vec::new(), Vec::new());
    let mut first: Option<Vec<u8>> = None;
    for pass in 0..2 * args.replay_pairs {
        let cache_dir = args.replay_caches.join(pass.to_string());
        let mut off = Tracer::new(&args.workload, false);
        let tracing = matches!(pass % 4, 1 | 2);
        let started = Instant::now();
        let bytes = replay(
            if tracing { &mut *tracer } else { &mut off },
            args,
            bodies,
            &cache_dir,
        );
        let seconds = started.elapsed().as_secs_f64();
        if tracing { &mut traced } else { &mut untraced }.push(seconds);
        match &first {
            None => first = Some(bytes),
            Some(first) => checks.expect(*first == bytes, "every replay pass gives the same bytes"),
        }
    }
    std::fs::write(&args.replay_out, first.unwrap_or_default()).expect("replay output writes");
    (median(&traced), median(&untraced))
}

fn main() {
    let args = parse_args().unwrap_or_else(|error| {
        eprintln!("perfbench-layers: {error}");
        std::process::exit(2);
    });
    ensure_registered();
    let mut tracer = Tracer::new(&args.workload, true);
    let mut metrics = Metrics::new();
    let mut checks = Checks::default();
    let matrix_specs = specs_of(&args.matrix_doc);
    let collective_specs = specs_of(&args.collectives_doc);
    let bodies = requests_of(&args.bodies);

    probe_exec(&mut tracer, &mut metrics);
    let (traced_wall, untraced_wall) = replay_pairs(&mut tracer, &mut checks, &args, &bodies);
    probe_planning(&mut tracer, &mut metrics, &matrix_specs, &bodies);
    let matrix = probe_engine(&mut tracer, &mut metrics, &mut checks, &matrix_specs);
    probe_render(&mut tracer, &mut metrics, &matrix);
    let load_samples = probe_store(
        &mut tracer,
        &mut metrics,
        &mut checks,
        &matrix,
        &args.work.join("store-probe"),
    );
    probe_workloads(&mut tracer, &mut metrics, &mut checks, &collective_specs);

    tracer
        .write_jsonl(&args.spans)
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", args.spans.display()));
    let mut line = String::from("{\"metrics\":{");
    for (index, (name, value)) in metrics.iter().enumerate() {
        let sep = if index == 0 { "" } else { "," };
        write!(line, "{sep}\"{name}\":{value:e}").expect("writing to a String cannot fail");
    }
    write!(
        line,
        "}},\"samples\":{{\"store.load_s\":{load_samples},\"trace.wall_s\":{}}},\
         \"replay_wall_s\":{traced_wall:e},\"untraced_replay_wall_s\":{untraced_wall:e},\
         \"attempted\":{},\"failed\":{}}}",
        args.replay_pairs, checks.attempted, checks.failed
    )
    .expect("writing to a String cannot fail");
    println!("{line}");
}
