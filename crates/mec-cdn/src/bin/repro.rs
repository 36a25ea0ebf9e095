//! `repro` — regenerates every table and figure of the paper.
//!
//! ```text
//! repro all            # everything below, in order
//! repro table1         # Table 1: tested CDN domains
//! repro table2         # Table 2: entities and roles
//! repro fig2           # Figure 2: lookup latency per access network
//! repro fig3           # Figure 3: answer distribution across pools
//! repro fig5 [--nr]    # Figure 5: the six deployments (--nr: 5G air)
//! repro telemetry      # per-deployment query-path counters + trace/tap cross-check
//! repro ecs            # §4: the ECS factors
//! repro fallback       # §3 ablation: P1 policies
//! repro dos            # §3 ablation: ingress-threshold switch
//! repro chaos [--quick] # robustness: P1 policies under link faults + MEC DNS crash
//! repro ipreuse        # §5: public-IP reuse accounting
//! repro city [--quick] # metro-scale: 1M flow-level UEs, MEC vs cloud resolution
//! repro federation [--quick] # 3-site anycast C-DNS vs single MEC vs DNS selection
//! ```
//!
//! `city` and `federation` are not part of `repro all`: at full scale
//! `city` simulates a million UEs per deployment and would dominate the
//! run, and `all`'s committed golden output predates both. Invoke them
//! explicitly.
//!
//! Add `--json` to emit machine-readable output (what EXPERIMENTS.md
//! quotes) alongside the tables, `--seed <n>` to replay under a
//! different deterministic seed (default 2020), and `--threads <n>` to
//! fan the figure campaigns over worker threads (`0` = all CPUs;
//! output is byte-identical at any thread count). An unknown subcommand
//! or flag, or a flag value that is not a non-negative integer, prints
//! a usage line to stderr and exits 2.

use mec_cdn::experiments;
use mec_cdn::{DeploymentKind, Runner, TestbedConfig};
use ran_sim::RadioProfile;

const DEFAULT_SEED: u64 = 2020;

/// Every section `repro` can print.
const SUBCOMMANDS: &str = "all table1 table2 fig2 fig3 fig5 telemetry ecs fallback dos chaos \
                           ipreuse city federation recursion load content mobility disagg";

/// A command line that parsed: one known subcommand and known flags only.
struct Args {
    what: &'static str,
    json: bool,
    nr: bool,
    quick: bool,
    seed: u64,
    threads: usize,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut cli = Args {
        what: "all",
        json: false,
        nr: false,
        quick: false,
        seed: DEFAULT_SEED,
        threads: 1,
    };
    let mut seen_subcommand = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => cli.json = true,
            "--nr" => cli.nr = true,
            "--quick" => cli.quick = true,
            flag @ ("--seed" | "--threads") => {
                let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
                let bad = |_| format!("{flag} takes a non-negative integer, got `{value}`");
                if flag == "--seed" {
                    cli.seed = value.parse().map_err(bad)?;
                } else {
                    cli.threads = value.parse().map_err(bad)?;
                }
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag `{flag}`")),
            sub if seen_subcommand => return Err(format!("a second subcommand `{sub}`")),
            sub => {
                let known = SUBCOMMANDS.split(' ').find(|s| *s == sub);
                cli.what = known.ok_or_else(|| format!("unknown subcommand `{sub}`"))?;
                seen_subcommand = true;
            }
        }
    }
    Ok(cli)
}

fn main() {
    // detlint: allow(env-read) — CLI of a measurement harness, outside
    // any simulation.
    let cli = parse_args(std::env::args().skip(1)).unwrap_or_else(|msg| {
        let subcommands = SUBCOMMANDS.replace(' ', "|");
        eprintln!("repro: {msg}");
        eprintln!(
            "usage: repro [{subcommands}] [--json] [--nr] [--quick] [--seed N] [--threads N]"
        );
        std::process::exit(2)
    });
    #[allow(non_snake_case)]
    let (what, json, nr, quick, SEED) = (cli.what, cli.json, cli.nr, cli.quick, cli.seed);
    let runner = Runner::new(cli.threads);

    let all = what == "all";
    if all || what == "table1" {
        print!("{}", experiments::table1());
        println!();
    }
    if all || what == "table2" {
        print!("{}", experiments::table2_with(&runner));
        println!();
    }
    if all || what == "fig2" || what == "fig3" {
        let (fig2, fig3) = experiments::fig2_fig3_with(SEED, &runner);
        if all || what == "fig2" {
            print!("{}", fig2.render());
            if json {
                println!("{}", serde_json::to_string_pretty(&fig2).unwrap());
            }
            println!();
        }
        if all || what == "fig3" {
            for f in &fig3 {
                print!("{}", f.render());
                println!();
            }
            if json {
                println!("{}", serde_json::to_string_pretty(&fig3).unwrap());
            }
        }
    }
    if all || what == "fig5" || what == "telemetry" {
        let cfg = TestbedConfig {
            seed: SEED,
            radio: if nr { RadioProfile::Nr } else { RadioProfile::Lte },
            ..TestbedConfig::default()
        };
        // One pass over the six worlds yields both the figure and the
        // query-path telemetry artifact.
        let (fig, telemetry) = experiments::fig5_telemetry_with(&cfg, &runner);
        if all || what == "fig5" {
            print!("{}", fig.render());
            println!(
                "paper's means (ms): {}",
                DeploymentKind::all()
                    .map(|k| format!("{}={}", k.label(), k.paper_mean_ms()))
                    .join(", ")
            );
            if json {
                println!("{}", serde_json::to_string_pretty(&fig).unwrap());
            }
            println!();
        }
        if all || what == "telemetry" {
            print!("{}", telemetry.render());
            if json {
                println!("{}", serde_json::to_string_pretty(&telemetry).unwrap());
            }
            println!();
        }
    }
    if all || what == "ecs" {
        let fig = experiments::ecs_experiment(SEED);
        print!("{}", fig.render());
        println!("paper's factors: x1.01, x1.08, x0.95 (\"ECS may even increase DNS resolution time\")");
        if json {
            println!("{}", serde_json::to_string_pretty(&fig).unwrap());
        }
        println!();
    }
    if all || what == "fallback" {
        let fig = experiments::fallback_experiment(SEED);
        print!("{}", fig.render());
        if json {
            println!("{}", serde_json::to_string_pretty(&fig).unwrap());
        }
        println!();
    }
    if all || what == "dos" {
        let r = experiments::dos_experiment(SEED);
        println!("== dos — orchestrator ingress-threshold switch ==");
        println!(
            "mitigations activated: {}   recoveries: {}   client availability: {:.3}",
            r.activations, r.recoveries, r.availability
        );
        let switches: Vec<String> = r
            .resolver_timeline
            .windows(2)
            .filter(|w| w[0].1 != w[1].1)
            .map(|w| {
                format!(
                    "t={:.1}s -> {}",
                    w[1].0 / 1000.0,
                    if w[1].1 == r.provider { "provider L-DNS" } else { "MEC DNS" }
                )
            })
            .collect();
        println!("resolver switches: {}", switches.join(", "));
        println!();
    }
    if all || what == "chaos" {
        let cfg = if quick {
            mec_cdn::experiments::ChaosConfig::quick()
        } else {
            mec_cdn::experiments::ChaosConfig::default()
        };
        let r = experiments::chaos_experiment_with(SEED, &runner, &cfg);
        print!("{}", r.render());
        if json {
            println!("{}", serde_json::to_string_pretty(&r).unwrap());
        }
        println!();
    }
    // Deliberately NOT under `all`: the full city is a million UEs per
    // deployment, minutes of wall time, and `all`'s output is pinned by
    // golden tests that predate it.
    if what == "city" {
        let cfg = if quick {
            mec_cdn::CityConfig::quick()
        } else {
            mec_cdn::CityConfig::full()
        };
        let r = mec_cdn::city_experiment_with(SEED, &runner, &cfg);
        print!("{}", r.render());
        if json {
            println!("{}", serde_json::to_string_pretty(&r).unwrap());
        }
        println!();
    }
    // Like `city`, not under `all`: postdates the pinned golden output.
    if what == "federation" {
        let cfg = if quick {
            mec_cdn::FederationConfig::quick()
        } else {
            mec_cdn::FederationConfig::default()
        };
        let r = mec_cdn::federation_experiment_with(SEED, &runner, &cfg);
        print!("{}", r.render());
        if json {
            println!("{}", serde_json::to_string_pretty(&r).unwrap());
        }
        println!();
    }
    if all || what == "ipreuse" {
        ipreuse(SEED);
        println!();
    }
    if all || what == "recursion" {
        let r = experiments::recursion_ablation(SEED);
        println!("== recursion — stub-domain redirect vs full recursion at the MEC L-DNS ==");
        println!("stub-domain to collocated C-DNS (cold): {:>7.1} ms", r.stub_cold_ms);
        println!("full recursion via cloud hierarchy (cold): {:>4.1} ms", r.recursive_cold_ms);
        println!("full recursion, answer cached at L-DNS: {:>6.1} ms", r.recursive_warm_ms);
        println!(
            "hierarchical lookups cost {:.1}x on every cache-cold query",
            r.recursive_cold_ms / r.stub_cold_ms
        );
        println!();
    }
    if all || what == "load" {
        let points = experiments::load_experiment(SEED);
        println!("== load — MEC DNS under load, scaling out behind one ClusterIP ==");
        println!("{:>5} {:>9} {:>10} {:>10} {:>10}", "UEs", "replicas", "mean(ms)", "p92(ms)", "answered");
        for p in &points {
            println!(
                "{:>5} {:>9} {:>10.2} {:>10.2} {:>9.1}%",
                p.ues, p.replicas, p.mean_ms, p.p92_ms, p.answered * 100.0
            );
        }
        println!();
    }
    if all || what == "content" {
        let r = experiments::content_access_experiment(SEED);
        println!("== content — end-to-end access latency, MEC-CDN vs classic ==");
        println!(
            "MEC-CDN:  DNS {:.1} ms + warm fetch {:.1} ms = {:.1} ms",
            r.mec_dns_ms, r.mec_fetch_ms, r.mec_total_ms()
        );
        println!(
            "classic:  DNS {:.1} ms + fetch {:.1} ms = {:.1} ms",
            r.classic_dns_ms, r.classic_fetch_ms, r.classic_total_ms()
        );
        println!("end-to-end speedup: {:.1}x", r.speedup());
        println!();
    }
    if all || what == "mobility" {
        let r = experiments::mobility_experiment(SEED);
        println!("== mobility — DNS target switched with the handoff (S3) ==");
        println!(
            "handoff at t={:.1}s; {} answers from the serving site's cache, {} from the wrong site, {} lost in the gap",
            r.handoff_at_ms / 1000.0,
            r.correct_site_answers,
            r.wrong_site_answers,
            r.lost
        );
        println!(
            "mean resolution: {:.1} ms on site A ({}), {:.1} ms after settling on site B ({})",
            r.mean_before_ms, r.cache_a, r.mean_after_ms, r.cache_b
        );
        println!();
    }
    if all || what == "disagg" {
        let r = experiments::disaggregation_experiment(SEED);
        println!("== disagg — request disaggregation vs cache hit rate (S2 obs. 2) ==");
        println!(
            "aggregated routing (stable object->cache):   hit rate {:.1}%  ({} origin fetches / {} requests)",
            r.aggregated_hit_rate * 100.0,
            r.aggregated_origin_fetches,
            r.requests
        );
        println!(
            "disaggregated routing (per-query rotation):  hit rate {:.1}%  ({} origin fetches / {} requests)",
            r.disaggregated_hit_rate * 100.0,
            r.disaggregated_origin_fetches,
            r.requests
        );
        println!(
            "miss-rate increase from disaggregation: {:.1} percentage points",
            (r.aggregated_hit_rate - r.disaggregated_hit_rate) * 100.0
        );
    }
}

fn ipreuse(seed: u64) {
    use dns_wire::Name;
    use mec_cdn::ip_reuse::IpReusePlan;
    use mec_orch::{Cluster, ClusterConfig, Visibility};
    use netsim::{Network, NodeBehavior};

    struct Nop;
    impl NodeBehavior for Nop {}

    let mut net = Network::new(seed);
    let mut cluster = Cluster::new(&mut net, "mec", ClusterConfig::default());
    cluster.add_namespace("cdn", Visibility::Public);
    let tr_pod = cluster.launch_pod(&mut net, "cdn", "tr", Nop);
    let ldns_pod = cluster.launch_pod(&mut net, "cdn", "ldns", Nop);
    let cache_pod = cluster.launch_pod(&mut net, "cdn", "cache", Nop);
    let tr = cluster.create_service(&mut net, "cdn", "trafficrouter", &[tr_pod]);
    let ldns = cluster.create_service(&mut net, "cdn", "coredns", &[ldns_pod]);
    let cache = cluster.create_service(&mut net, "cdn", "cache", &[cache_pod]);
    let domains: Vec<Name> = (0..10)
        .map(|i| Name::parse(&format!("video.customer{i}.mycdn.ciab.test")).unwrap())
        .collect();
    let plan = IpReusePlan::apply(&mut cluster, &tr, &ldns, &cache, &domains);
    let shared = plan.verify(&cluster).expect("plan verifies");
    println!("== ipreuse — public IPs for {} CDN customers ==", plan.domains.len());
    println!("per-customer deployment would expose: {} public IPs", plan.naive_public_ips);
    println!("MEC-CDN design exposes:               {} (shared resolver + cache ClusterIPs)", plan.reused_public_ips);
    println!("saved: {} addresses; all domains resolve to {shared}", plan.saved());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    #[test]
    fn known_input_parses_with_defaults_for_what_is_absent() {
        let a = parse("").expect("no arguments parse");
        let defaults = (a.what, a.json, a.nr, a.quick, a.seed, a.threads);
        assert_eq!(defaults, ("all", false, false, false, DEFAULT_SEED, 1));
        let a = parse("--threads 8 fig5 --nr --json --seed 7 --quick").expect("parses");
        let set = (a.what, a.json, a.nr, a.quick, a.seed, a.threads);
        assert_eq!(set, ("fig5", true, true, true, 7, 8));
        for sub in SUBCOMMANDS.split(' ') {
            assert_eq!(parse(sub).map(|a| a.what), Ok(sub));
        }
    }

    #[test]
    fn unknown_or_malformed_input_is_an_error() {
        for line in [
            "bogus",
            "--seed",
            "table1 --threads",
            "table1 --threads abc",
            "table1 --threads -1",
            "--seed 0x10",
            "fig5 --bogus-flag",
            "fig5 -n",
            "fig5 fig2",
        ] {
            assert!(parse(line).is_err(), "`{line}` parsed");
        }
    }
}
