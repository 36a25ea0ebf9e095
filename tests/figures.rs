//! Shape assertions for every figure the paper reports — the
//! integration-level "does the reproduction reproduce" suite.
//!
//! These do not check absolute numbers against the paper (the substrate
//! is a simulator, not the authors' USRP testbed); they check the
//! *claims*: orderings, factors, crossovers and distribution shifts.

use mec_cdn::experiments::{self, FIG2_QUERIES_PER_SITE};
use mec_cdn::{DeploymentKind, TestbedConfig};
use ran_sim::AccessKind;
use workload::figures::{Bar, Figure};
use workload::SITES;

const SEED: u64 = 2020;

fn bar<'a>(fig: &'a Figure, label: &str) -> &'a Bar {
    fig.bars
        .iter()
        .find(|b| b.label == label)
        .unwrap_or_else(|| panic!("missing bar {label}"))
}

#[test]
fn fig2_has_fifteen_bars_with_enough_samples() {
    let (fig2, _) = experiments::fig2_fig3(SEED);
    assert_eq!(fig2.bars.len(), SITES.len() * 3, "5 sites x 3 networks");
    for b in &fig2.bars {
        // Paper: "Each bar is based on at least 12 tests".
        assert!(
            b.samples >= 12,
            "{} has only {} samples",
            b.label,
            b.samples
        );
        assert_eq!(b.samples, FIG2_QUERIES_PER_SITE);
        assert!(b.min_ms <= b.mean_ms && b.mean_ms <= b.max_ms);
    }
}

#[test]
fn fig2_cellular_is_slowest_and_most_variable_for_every_site() {
    // §2 observation 1.
    let (fig2, _) = experiments::fig2_fig3(SEED);
    for site in SITES {
        let wired = bar(&fig2, &format!("{} / wired-campus", site.name));
        let wifi = bar(&fig2, &format!("{} / wifi-home", site.name));
        let cell = bar(&fig2, &format!("{} / cellular-mobile", site.name));
        assert!(
            cell.mean_ms > wifi.mean_ms && wifi.mean_ms > wired.mean_ms,
            "{}: {} / {} / {} not increasing",
            site.name,
            wired.mean_ms,
            wifi.mean_ms,
            cell.mean_ms
        );
        assert!(
            cell.mean_ms > 2.0 * wired.mean_ms,
            "{}: cellular must be a multiple of wired",
            site.name
        );
        let spread = |b: &Bar| b.max_ms - b.min_ms;
        assert!(
            spread(cell) > spread(wired),
            "{}: cellular whiskers must exceed wired's",
            site.name
        );
    }
}

#[test]
fn fig3_answer_mix_shifts_with_the_access_network() {
    // §2 observation 2: same location, different networks → different
    // cache-server sets.
    let (_, fig3) = experiments::fig2_fig3(SEED);
    assert_eq!(fig3.len(), SITES.len());
    for f in &fig3 {
        assert_eq!(f.bars.len(), 3, "{}: one bar per network", f.id);
        let dist_of = |label: &str| -> Vec<(String, f64)> {
            f.bars
                .iter()
                .find(|(l, _)| l == label)
                .map(|(_, d)| d.clone())
                .unwrap()
        };
        let wired = dist_of("wired-campus");
        let cell = dist_of("cellular-mobile");
        // Each bar's percentages sum to ~100.
        for d in [&wired, &cell] {
            let total: f64 = d.iter().map(|(_, p)| p).sum();
            assert!((99.0..101.0).contains(&total), "{}: sums to {total}", f.id);
        }
        // At least one pool's share moves by ≥10 percentage points.
        let max_shift = wired
            .iter()
            .map(|(pool, pct)| {
                let cell_pct = cell
                    .iter()
                    .find(|(p, _)| p == pool)
                    .map(|(_, v)| *v)
                    .unwrap_or(0.0);
                (pct - cell_pct).abs()
            })
            .fold(0.0, f64::max);
        assert!(
            max_shift >= 10.0,
            "{}: answer mix barely moves ({max_shift} points)",
            f.id
        );
        // No answer escaped the site's configured pools.
        for (_, d) in &f.bars {
            assert!(
                d.iter().all(|(pool, _)| pool != "other"),
                "{}: answer outside every known pool",
                f.id
            );
        }
    }
}

#[test]
fn fig5_reproduces_the_papers_orderings_and_headlines() {
    let fig = experiments::fig5(&TestbedConfig {
        seed: SEED,
        ..TestbedConfig::default()
    });
    assert_eq!(fig.stacked.len(), 6);
    let total = |label: &str| {
        fig.stacked
            .iter()
            .find(|b| b.label == label)
            .unwrap()
            .total_ms
    };
    // Ordering.
    assert!(total("MEC L-DNS w/ MEC C-DNS") < total("MEC L-DNS w/ LAN C-DNS"));
    assert!(total("MEC L-DNS w/ LAN C-DNS") < total("MEC L-DNS w/ WAN C-DNS"));
    assert!(total("MEC L-DNS w/ WAN C-DNS") < total("Google DNS"));
    assert!(total("Google DNS") < total("Cloudflare DNS"));
    // "up to 9x lower resolution latency".
    let speedup = fig
        .notes
        .iter()
        .find(|(k, _)| k == "speedup_vs_worst")
        .unwrap()
        .1;
    assert!((8.0..12.0).contains(&speedup), "speedup {speedup}");
    // "The 5ms lower latency of MEC-CDN, compared to this ideal setting".
    let gap = fig
        .notes
        .iter()
        .find(|(k, _)| k == "gap_vs_lan_cdns_ms")
        .unwrap()
        .1;
    assert!((3.0..8.0).contains(&gap), "LAN gap {gap}");
    // Every bar decomposes into wireless + resolver, with wireless ≈
    // 20 ms across the board (same radio in every deployment).
    for b in &fig.stacked {
        assert!(
            (b.wireless_ms + b.resolver_ms - b.total_ms).abs() < 1e-6,
            "{}: components must sum",
            b.label
        );
        assert!(
            (17.0..26.0).contains(&b.wireless_ms),
            "{}: wireless {} off the ~20ms LTE anchor",
            b.label,
            b.wireless_ms
        );
    }
    // Each mean lands within 25% of the paper's value.
    for kind in DeploymentKind::all() {
        let measured = total(kind.label());
        let ratio = measured / kind.paper_mean_ms();
        assert!(
            (0.8..1.25).contains(&ratio),
            "{}: {measured:.1} vs paper {} (x{ratio:.2})",
            kind.label(),
            kind.paper_mean_ms()
        );
    }
}

#[test]
fn fig5_figure_serializes_for_experiments_md() {
    let fig = experiments::fig5(&TestbedConfig {
        seed: SEED,
        queries: 12,
        ..TestbedConfig::default()
    });
    let json = serde_json::to_string(&fig).unwrap();
    let back: Figure = serde_json::from_str(&json).unwrap();
    assert_eq!(back.stacked.len(), fig.stacked.len());
    assert!(fig.render().contains("MEC L-DNS w/ MEC C-DNS"));
}

#[test]
fn ecs_factors_stay_in_the_papers_band() {
    // Paper: x1.01, x1.08, x0.95 — i.e. within a few percent of 1,
    // sometimes above ("using ECS may even increase DNS resolution
    // time"), never a meaningful win.
    let fig = experiments::ecs_experiment(SEED);
    let factors: Vec<f64> = fig
        .notes
        .iter()
        .filter(|(k, _)| k.starts_with("ecs_factor"))
        .map(|(_, v)| *v)
        .collect();
    assert_eq!(factors.len(), 3);
    for f in &factors {
        assert!((0.9..1.15).contains(f), "ECS factor {f} outside the band");
    }
    assert!(
        factors.iter().any(|f| *f >= 1.0),
        "at least one deployment should show ECS overhead"
    );
    // The key negative result: ECS never buys a meaningful speedup.
    assert!(factors.iter().all(|f| *f > 0.9));
}

#[test]
fn fallback_experiment_availability_matrix() {
    let fig = experiments::fallback_experiment(SEED);
    let avail = |key: &str| {
        fig.notes
            .iter()
            .find(|(k, _)| k == &format!("availability[{key}]"))
            .unwrap_or_else(|| panic!("missing note {key}"))
            .1
    };
    // MEC names resolve under every policy.
    assert_eq!(avail("mec-only / mec"), 1.0);
    assert_eq!(avail("multicast / mec"), 1.0);
    assert_eq!(avail("fallback-on-timeout / mec"), 1.0);
    // Non-MEC names: dead under mec-only, alive under both workarounds.
    assert_eq!(avail("mec-only / non-mec"), 0.0);
    assert_eq!(avail("multicast / non-mec"), 1.0);
    assert_eq!(avail("fallback-on-timeout / non-mec"), 1.0);
    // Latency: fallback pays the timeout, multicast does not.
    let mean = |label: &str| {
        fig.bars
            .iter()
            .find(|b| b.label == label)
            .unwrap_or_else(|| panic!("missing {label}"))
            .mean_ms
    };
    assert!(mean("fallback-on-timeout / non-mec") > mean("multicast / non-mec"));
    // MEC-name latency is unaffected by the policy choice (within 2 ms).
    let mec_means = [
        mean("mec-only / mec"),
        mean("multicast / mec"),
        mean("fallback-on-timeout / mec"),
    ];
    let lo = mec_means.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = mec_means.iter().copied().fold(0.0, f64::max);
    assert!(hi - lo < 2.0, "policy changed MEC latency: {mec_means:?}");
}

#[test]
fn dos_switch_protects_and_recovers() {
    let r = experiments::dos_experiment(SEED);
    assert_eq!(
        r.activations, 1,
        "flood must trigger exactly one mitigation"
    );
    assert_eq!(r.recoveries, 1, "and recover once it subsides");
    assert!(
        r.availability > 0.99,
        "clients must not notice: {}",
        r.availability
    );
    // The client's resolver timeline: MEC → provider → MEC.
    let distinct: Vec<_> = r
        .resolver_timeline
        .windows(2)
        .filter(|w| w[0].1 != w[1].1)
        .map(|w| w[1].1)
        .collect();
    assert_eq!(distinct, vec![r.provider, r.mec_dns]);
    // The switch happens while the attack runs (5s..15s) and recovery after.
    let switch_times: Vec<f64> = r
        .resolver_timeline
        .windows(2)
        .filter(|w| w[0].1 != w[1].1)
        .map(|w| w[1].0)
        .collect();
    assert!(switch_times[0] >= 5_000.0 && switch_times[0] <= 15_000.0);
    assert!(switch_times[1] >= 15_000.0);
}

#[test]
fn fig5_nr_projection_crosses_the_20ms_envelope() {
    // §4: "Future 5G deployments will drastically reduce this time" —
    // only with NR does MEC-CDN actually fit the sub-20 ms envelope.
    let lte = experiments::fig5(&TestbedConfig {
        seed: SEED,
        queries: 12,
        ..TestbedConfig::default()
    });
    let nr = experiments::fig5(&TestbedConfig {
        seed: SEED,
        queries: 12,
        radio: ran_sim::RadioProfile::Nr,
        ..TestbedConfig::default()
    });
    let mec = |f: &Figure| {
        f.stacked
            .iter()
            .find(|b| b.label == "MEC L-DNS w/ MEC C-DNS")
            .unwrap()
            .total_ms
    };
    assert!(mec(&lte) > 20.0, "on LTE even MEC-CDN exceeds 20ms");
    assert!(mec(&nr) < 20.0, "on NR MEC-CDN must fit the envelope");
    // And the non-MEC deployments still do not fit even on NR.
    let google_nr = nr
        .stacked
        .iter()
        .find(|b| b.label == "Google DNS")
        .unwrap()
        .total_ms;
    assert!(google_nr > 20.0);
}

#[test]
fn disaggregation_increases_the_miss_rate() {
    // §2 observation 2: "this also leads to disaggregation of requests
    // and may increase the cache miss rate."
    let r = experiments::disaggregation_experiment(SEED);
    assert!(
        r.aggregated_hit_rate > r.disaggregated_hit_rate + 0.10,
        "disaggregation should cost ≥10 points of hit rate: {:.3} vs {:.3}",
        r.aggregated_hit_rate,
        r.disaggregated_hit_rate
    );
    assert!(
        r.disaggregated_origin_fetches > 2 * r.aggregated_origin_fetches,
        "disaggregation should multiply origin load: {} vs {}",
        r.disaggregated_origin_fetches,
        r.aggregated_origin_fetches
    );
    // Both scenarios still mostly hit (the caches are not useless).
    assert!(r.disaggregated_hit_rate > 0.4);
    assert!(r.aggregated_hit_rate > 0.7);
}

#[test]
fn stub_domain_beats_full_recursion_on_cold_lookups() {
    // DESIGN.md decision 3: the prototype's stub-domain redirect keeps
    // resolution inside the MEC, while full recursion from cloud root
    // hints pays the "hierarchical lookup delays" §3 eliminates —
    // several cloud RTTs per cache-cold lookup.
    let r = experiments::recursion_ablation(SEED);
    assert!(
        r.recursive_cold_ms > 10.0 * r.stub_cold_ms,
        "hierarchy should cost an order of magnitude: {} vs {}",
        r.recursive_cold_ms,
        r.stub_cold_ms
    );
    // But caching hides it on warm lookups — which is exactly why
    // Figure 2's wired bars look fine and the problem only shows on the
    // first (or TTL-expired) query of latency-critical content.
    assert!(r.recursive_warm_ms < r.stub_cold_ms);
    assert!(r.stub_cold_ms < 15.0, "stub path must stay MEC-local");
}

#[test]
fn load_saturates_one_replica_and_recovers_with_four() {
    // The scalability story behind "for scalability reasons, [instances]
    // are co-running at a MEC location": one single-worker DNS pod
    // saturates under 64 UEs; scaling the Deployment to 4 replicas
    // (same ClusterIP) restores full availability.
    let points = experiments::load_experiment(SEED);
    let get = |ues: usize, replicas: usize| {
        points
            .iter()
            .find(|p| p.ues == ues && p.replicas == replicas)
            .unwrap_or_else(|| panic!("missing point ({ues},{replicas})"))
    };
    let idle = get(1, 1);
    assert!(idle.mean_ms < 20.0, "idle latency {}ms", idle.mean_ms);
    assert!((idle.answered - 1.0).abs() < 1e-9);
    let overloaded = get(64, 1);
    assert!(
        overloaded.answered < 0.5,
        "one replica should drop most of 1280 qps: {}",
        overloaded.answered
    );
    let scaled = get(64, 4);
    assert!(
        (scaled.answered - 1.0).abs() < 1e-9,
        "4 replicas must answer all"
    );
    assert!(
        scaled.mean_ms < overloaded.mean_ms / 5.0,
        "scale-out should collapse the queue: {} vs {}",
        scaled.mean_ms,
        overloaded.mean_ms
    );
    // Latency grows monotonically with load at fixed capacity.
    assert!(get(16, 1).mean_ms > idle.mean_ms);
}

#[test]
fn content_access_is_drastically_faster_at_the_mec() {
    // The abstract: faster DNS resolution "providing drastic reductions
    // in the access latency for content cached in MEC-CDNs, compared to
    // current commercial CDN deployments."
    let r = experiments::content_access_experiment(SEED);
    assert!(
        r.speedup() > 2.5,
        "end-to-end speedup {:.2} not drastic",
        r.speedup()
    );
    // Both phases improve: resolution ~4x (Figure 5's MEC vs LAN-L-DNS
    // story) and the fetch itself ~3x (edge vs cloud cache).
    assert!(r.classic_dns_ms / r.mec_dns_ms > 2.5);
    assert!(r.classic_fetch_ms / r.mec_fetch_ms > 2.0);
    // The radio bounds the floor: nothing is faster than ~2 air RTTs.
    assert!(r.mec_total_ms() > 40.0);
}

#[test]
fn mobility_switch_keeps_answers_local_to_the_serving_site() {
    // §3: the DNS target switches with the handoff; answers always name
    // the serving edge's cache (location-aware contextualization).
    let r = experiments::mobility_experiment(SEED);
    assert_eq!(r.wrong_site_answers, 0, "an answer crossed sites");
    assert!(
        r.correct_site_answers >= 55,
        "only {} of 60 queries answered correctly",
        r.correct_site_answers
    );
    assert!(r.lost <= 3, "{} queries lost — gap too damaging", r.lost);
    // Latency on both sites is MEC-local (same order of magnitude).
    assert!(r.mean_before_ms < 40.0);
    assert!(r.mean_after_ms < 40.0);
    assert!((r.mean_before_ms - r.mean_after_ms).abs() < 10.0);
}

#[test]
fn access_profiles_are_ordered_like_figure2() {
    // Sanity on the calibration layer itself.
    let mean = |k: AccessKind| k.access_link().latency.mean_ms() + k.ldns_link().latency.mean_ms();
    assert!(mean(AccessKind::WiredCampus) < mean(AccessKind::HomeWifi));
    assert!(mean(AccessKind::HomeWifi) < mean(AccessKind::CellularMobile));
}
