//! Quickstart: build the paper's proposed deployment (MEC L-DNS with a
//! collocated C-DNS), resolve the CDN domain from a simulated UE, and
//! print where the time went.
//!
//! ```text
//! cargo run --example quickstart [-- --pcap capture.pcap]
//! ```
//!
//! With `--pcap <path>`, everything crossing the P-GW is written as a
//! Wireshark-readable capture — the simulated equivalent of the paper's
//! `tcpdump at P-GW`.

use mec_cdn::{Deployment, DeploymentKind, TestbedConfig};

fn main() {
    // One knob object controls the whole testbed: seed, radio, query
    // schedule, ECS.
    let cfg = TestbedConfig::default();

    let args: Vec<String> = std::env::args().collect();
    let pcap_path = args
        .iter()
        .position(|a| a == "--pcap")
        .and_then(|i| args.get(i + 1).cloned());

    // Build the world of Figure 4: UE — eNB — EPC — MEC cluster with
    // CoreDNS-style L-DNS, ATC-style Traffic Router and a cache pod.
    let mut deployment = Deployment::build(DeploymentKind::MecLdnsMecCdns, &cfg);
    if pcap_path.is_some() {
        deployment.net.enable_tap_with_payloads(deployment.pgw);
    }
    println!(
        "UE resolves {} at {} (a Kubernetes ClusterIP — no pod or host IP is ever exposed)",
        workload::sites::MEC_CDN_DOMAIN,
        deployment.resolver_addr
    );

    // Run the dig schedule and split each lookup at the P-GW, exactly
    // like the paper's dig + tcpdump methodology.
    let (measured, split) = deployment.run_measure();
    println!(
        "\n{:>5} {:>12} {:>12} {:>12}  answer",
        "query", "total(ms)", "wireless(ms)", "resolver(ms)"
    );
    for (i, (m, s)) in measured.iter().zip(&split).enumerate() {
        println!(
            "{:>5} {:>12.2} {:>12.2} {:>12.2}  {}",
            i,
            s.total.as_millis_f64(),
            s.wireless.as_millis_f64(),
            s.resolver.as_millis_f64(),
            m.outcome
                .addrs
                .first()
                .map(|a| a.to_string())
                .unwrap_or_else(|| m.outcome.rcode.to_string()),
        );
    }

    let mut totals = netsim::Samples::new();
    let mut wireless = netsim::Samples::new();
    for s in &split {
        totals.record(s.total);
        wireless.record(s.wireless);
    }
    let t = totals.summarize().unwrap();
    let w = wireless.summarize().unwrap();
    println!(
        "\nmean lookup: {:.1} ms ({:.1} ms wireless + {:.1} ms resolver) over {} digs",
        t.trimmed_mean_ms,
        w.trimmed_mean_ms,
        t.trimmed_mean_ms - w.trimmed_mean_ms,
        t.samples
    );
    println!(
        "every answer named the MEC cache at {} — P1 and P2 satisfied in one hop",
        deployment.expected_cache
    );

    if let Some(path) = pcap_path {
        let out = netsim::pcap::export(&deployment.last_tap);
        std::fs::write(&path, &out.bytes).expect("write pcap");
        println!(
            "wrote {} packets ({} bytes) to {path} — open it in Wireshark",
            out.written,
            out.bytes.len()
        );
    }
}
