//! `encode`: the CABLE codec search path with no simulator.
//!
//! dealII is template-heavy, so nearly every fill searches live reference
//! candidates. Accesses from `WorkloadGen` are pushed through
//! `CompressedLink::request_batch` for CABLE+LBE over a 4 MB home / 1 MB
//! remote cache pair, after a warm-up, with the program's default
//! `verify_decompression` on: a decode mismatch panics, and the run then
//! counts every access as failed.

use crate::clock::HostClock;
use crate::metrics::{median, ratio};
use crate::spans::Tracer;
use crate::{common_end_to_end, link_layer_metrics, Outcome, RunConfig, Size};
use cable_cache::CacheGeometry;
use cable_compress::EngineKind;
use cable_core::{BatchAccess, LinkStats, Transfer};
use cable_sim::{CompressedLink, Scheme};
use cable_trace::WorkloadGen;

/// The replayed workload profile.
pub const PROFILE: &str = "dealII";

/// Generator instances the seed selects from. `WorkloadGen::new` replays
/// `instance * 19_997` accesses of phase lag, so the instance id must stay
/// small for set-up time not to depend on the seed.
pub const INSTANCES: u64 = 8;

/// Accesses per `request_batch` call.
const BATCH: u64 = 64;

struct Plan {
    warm: u64,
    chunk: u64,
    chunks: u64,
    setup_reps: usize,
}

fn plan(size: Size) -> Plan {
    match size {
        Size::Seconds(s) => Plan {
            warm: 60_000,
            chunk: 25_000,
            chunks: 14 * s.max(1),
            setup_reps: 5,
        },
        Size::Tiny => Plan {
            warm: 2_000,
            chunk: 1_000,
            chunks: 3,
            setup_reps: 2,
        },
    }
}

struct LinkFeed {
    link: CompressedLink,
    gen: WorkloadGen,
    batch: Vec<BatchAccess>,
    xfers: Vec<Transfer>,
    /// Batches whose transfer count differed from the batch length.
    short_batches: u64,
}

impl LinkFeed {
    fn new(instance: u64, tr: &mut Tracer) -> Self {
        let profile = cable_trace::by_name(PROFILE).expect("dealII is a built-in profile");
        let link = tr.span("core.link.build", |_| {
            CompressedLink::build(
                Scheme::Cable(EngineKind::Lbe),
                CacheGeometry::new(4 << 20, 16),
                CacheGeometry::new(1 << 20, 8),
                16,
            )
        });
        let gen = tr.span("trace.gen.new", |_| WorkloadGen::new(profile, instance));
        LinkFeed {
            link,
            gen,
            batch: Vec::with_capacity(BATCH as usize),
            xfers: Vec::with_capacity(BATCH as usize),
            short_batches: 0,
        }
    }

    fn drive(&mut self, accesses: u64, tr: &mut Tracer) {
        let mut left = accesses;
        while left > 0 {
            let n = left.min(BATCH);
            tr.enter("trace.gen");
            self.batch.clear();
            for _ in 0..n {
                let a = self.gen.next_access();
                let memory = self.gen.content(a.addr);
                self.batch.push(if a.is_write {
                    BatchAccess::write(a.addr, memory, self.gen.store_data(a.addr))
                } else {
                    BatchAccess::read(a.addr, memory)
                });
            }
            tr.exit();
            self.xfers.clear();
            tr.enter("core.link.request_batch");
            self.link.request_batch(&self.batch, &mut self.xfers);
            tr.exit();
            if self.xfers.len() != self.batch.len() {
                self.short_batches += 1;
            }
            left -= n;
        }
    }

    /// Builds, warms up and clears the statistics.
    fn warmed(instance: u64, warm: u64, tr: &mut Tracer) -> Self {
        let mut d = LinkFeed::new(instance, tr);
        d.drive(warm, tr);
        d.link.reset_stats();
        d
    }
}

struct Pass {
    norm_rates: Vec<f64>,
    raw_rates: Vec<f64>,
}

fn timed_pass(d: &mut LinkFeed, clock: &mut HostClock, tr: &mut Tracer, plan: &Plan) -> Pass {
    let mut pass = Pass {
        norm_rates: Vec::new(),
        raw_rates: Vec::new(),
    };
    for _ in 0..plan.chunks {
        let ((), lap) = clock.time(tr, |tr| d.drive(plan.chunk, tr));
        pass.norm_rates.push(plan.chunk as f64 / lap.norm_s);
        pass.raw_rates.push(plan.chunk as f64 / lap.raw_s);
    }
    pass
}

fn check_link(out: &mut Outcome, d: &LinkFeed, accesses: u64) {
    let s = d.link.stats();
    out.check(d.short_batches == 0, || {
        format!(
            "{} batches returned fewer transfers than accesses",
            d.short_batches
        )
    });
    out.check(s.fills + s.remote_hits == accesses, || {
        format!(
            "fills {} + remote hits {} != accesses {accesses}",
            s.fills, s.remote_hits
        )
    });
    out.check(
        s.raw_transfers + s.unseeded_transfers + s.diff_transfers == s.fills + s.writebacks,
        || format!("transfer kinds do not add up to fills + write-backs in {s:?}"),
    );
}

/// Runs the workload.
pub fn run(cfg: &RunConfig) -> Outcome {
    let plan = plan(cfg.size);
    let accesses = plan.chunk * plan.chunks;
    let instance = cfg.seed % INSTANCES;
    let mut out = Outcome {
        attempted: accesses,
        params: vec![
            ("profile", PROFILE.to_string()),
            ("scheme", "CABLE+LBE".to_string()),
            ("home_cache", "4 MiB 16-way".to_string()),
            ("remote_cache", "1 MiB 8-way".to_string()),
            ("link_width_bits", "16".to_string()),
            ("warm_accesses", plan.warm.to_string()),
            ("timed_accesses", accesses.to_string()),
            ("chunk_accesses", plan.chunk.to_string()),
            ("batch", BATCH.to_string()),
            ("seed", cfg.seed.to_string()),
            ("generator_instance", instance.to_string()),
        ],
        ..Outcome::default()
    };
    let mut clock = HostClock::new();
    let mut off = Tracer::new(false);
    let stats: LinkStats;
    if cfg.trace {
        let mut d = LinkFeed::warmed(instance, plan.warm, &mut off);
        let untraced = timed_pass(&mut d, &mut clock, &mut off, &plan);
        check_link(&mut out, &d, accesses);
        let untraced_stats = *d.link.stats();
        drop(d);

        let mut tr = Tracer::new(true);
        tr.enter("run");
        let mut d = LinkFeed::warmed(instance, plan.warm, &mut tr);
        let traced = timed_pass(&mut d, &mut clock, &mut tr, &plan);
        tr.exit();
        check_link(&mut out, &d, accesses);
        stats = *d.link.stats();
        out.check(stats == untraced_stats, || {
            "traced and untraced passes disagree on link statistics".to_string()
        });

        out.attribute(&tr);
        out.tracing_overhead(median(&untraced.norm_rates), median(&traced.norm_rates));
        out.metrics
            .set("host.raw_acc_per_s", median(&untraced.raw_rates));
        out.metrics.set("host.speed", median(clock.speeds()));
        let link_ns = tr.self_ns_of("core.link.request_batch") as f64;
        out.metrics.set(
            "core.link.ns_per_access",
            ratio(link_ns, (plan.warm + accesses) as f64),
        );
        out.spans = Some(tr);
    } else {
        let mut setups = Vec::new();
        let mut warmed = None;
        for _ in 0..plan.setup_reps {
            // Drop the previous link first so peak memory holds one.
            drop(warmed.take());
            let (d, lap) = clock.time(&mut off, |tr| LinkFeed::warmed(instance, plan.warm, tr));
            setups.push(lap.norm_s);
            warmed = Some(d);
        }
        let mut d = warmed.expect("at least one set-up");
        let pass = timed_pass(&mut d, &mut clock, &mut off, &plan);
        check_link(&mut out, &d, accesses);
        stats = *d.link.stats();
        out.metrics.set("host_acc_per_s", median(&pass.norm_rates));
        common_end_to_end(&mut out, &setups);
    }
    out.metrics.set(
        "sim_wire_bits_per_access",
        stats.wire_bits as f64 / accesses as f64,
    );
    link_layer_metrics(&mut out, &stats);
    out.sim("link_stats", stats);
    out
}
