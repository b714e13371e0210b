//! Multi-chip coherence-link compression (§V-B / Fig. 13 for one
//! benchmark).
//!
//! ```sh
//! cargo run --release --example coherence_link [benchmark] [nodes]
//! ```
//!
//! Models a NUMA CMP with round-robin page interleaving: three quarters of
//! the accesses are homed on other chips and cross CABLE-compressed
//! point-to-point links (one CABLE pipeline and WMT per link pair).

use cable::compress::EngineKind;
use cable::core::BaselineKind;
use cable::sim::{NumaSim, Scheme};

fn main() {
    let mut args = std::env::args().skip(1);
    let name = args.next().unwrap_or_else(|| "omnetpp".into());
    let nodes: usize = args.next().and_then(|n| n.parse().ok()).unwrap_or(4);
    let Some(profile) = cable::trace::by_name(&name) else {
        eprintln!("unknown benchmark {name}");
        std::process::exit(1);
    };

    println!("benchmark {name}, {nodes}-chip CMP, round-robin page interleave\n");
    for scheme in [
        Scheme::Baseline(BaselineKind::Cpack),
        Scheme::Baseline(BaselineKind::Gzip),
        Scheme::Cable(EngineKind::Lbe),
    ] {
        let mut sim = NumaSim::new(profile, scheme, nodes);
        sim.run_sharded(120_000, 1);
        let s = sim.combined_stats();
        let (local, remote) = sim.access_split();
        println!(
            "{:10} coherence-link ratio {:>5.2}x  (remote accesses {:.0}%, fills {}, write-backs {})",
            scheme.label(),
            s.compression_ratio(),
            100.0 * remote as f64 / (local + remote) as f64,
            s.fills,
            s.writebacks
        );
    }
}
