//! The DNS server node behavior: plugin chain, processing-delay model,
//! forwarding and full iterative recursion.

use crate::plugin::{Plugin, PluginDecision, QueryCtx};
use dns_wire::{ClientSubnet, Message, Name, Opt, Rcode, Record, RrType};
use netsim::{Datagram, Latency, NodeBehavior, NodeContext, SimDuration, Telemetry, TimerToken};
use std::collections::HashMap;
use std::net::IpAddr;

/// Timer-data tag for queued inbound queries.
const TAG_INBOX: u64 = 0x1 << 56;
/// Timer-data tag for upstream timeouts.
const TAG_PENDING: u64 = 0x2 << 56;
const TAG_MASK: u64 = 0xFF << 56;

/// Tuning for a DNS server.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// UDP port served (53 everywhere in this workspace).
    pub port: u16,
    /// Per-query processing delay (lookup work, plugin chain).
    pub processing: Latency,
    /// Extra processing when the query carries an ECS option — the
    /// overhead whose end-to-end effect §4 measures at ×1.01–1.08.
    pub ecs_processing: Latency,
    /// Attach an ECS option (the client's /24) to upstream queries when
    /// the client did not send one — "ECS support at L-DNS".
    pub attach_ecs: bool,
    /// Drop any client-supplied ECS option instead of propagating it —
    /// the behaviour of a "hidden resolver" in a forwarding chain, which
    /// §1 cites as a way ECS-based localization breaks: the C-DNS then
    /// scopes its answer to the egress resolver, not the client.
    pub strip_ecs: bool,
    /// How long to wait for an upstream response before retrying.
    pub upstream_timeout: SimDuration,
    /// Retries per upstream server before giving up on it.
    pub upstream_retries: u8,
    /// When true, queries are processed by a single worker: each query's
    /// processing starts only after the previous one finishes, so load
    /// shows up as queueing delay. Realistic for a small containerized
    /// DNS pod; large shared resolvers stay `false` (parallel).
    pub single_worker: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 53,
            processing: Latency::UniformMs(0.1, 0.4),
            ecs_processing: Latency::UniformMs(0.05, 0.25),
            attach_ecs: false,
            upstream_timeout: SimDuration::from_millis(2000),
            upstream_retries: 2,
            single_worker: false,
            strip_ecs: false,
        }
    }
}

struct RecurseJob {
    roots: Vec<IpAddr>,
    servers: Vec<IpAddr>,
    server_idx: usize,
    current_name: Name,
    cname_count: u8,
    acc: Vec<Record>,
}

enum JobKind {
    Forward { upstream: IpAddr },
    Recurse(RecurseJob),
}

struct Job {
    /// Reply template: the original datagram the query arrived in.
    reply_to: Datagram,
    /// The client's original query (id, question, ECS...).
    query: Message,
    kind: JobKind,
    upstream_id: u16,
    attempts_left: u8,
}

/// A DNS server as a simulator node behavior.
///
/// Queries pass through the plugin chain after a sampled processing
/// delay; [`PluginDecision::Forward`] and [`PluginDecision::Recurse`]
/// run asynchronously with timeouts and retries, and their responses are
/// shown to every plugin's `on_response` (filling caches) before being
/// relayed to the client.
pub struct DnsServer {
    config: ServerConfig,
    plugins: Vec<Box<dyn Plugin>>,
    telemetry: Telemetry,
    /// Queries waiting out their processing delay, decoded on arrival.
    inbox: HashMap<u64, (Datagram, Message)>,
    next_inbox: u64,
    jobs: HashMap<u64, Job>,
    id_to_gen: HashMap<u16, u64>,
    next_gen: u64,
    next_id: u16,
    /// When the single worker next becomes free (see
    /// [`ServerConfig::single_worker`]).
    busy_until: netsim::SimTime,
    /// Queries received (valid DNS only).
    pub queries_received: u64,
    /// Responses sent to clients.
    pub responses_sent: u64,
    /// Queries dropped by a [`PluginDecision::Ignore`].
    pub queries_ignored: u64,
    /// Upstream exchanges that timed out (per attempt).
    pub upstream_timeouts: u64,
    /// Datagrams that failed to parse.
    pub malformed: u64,
}

impl DnsServer {
    /// Creates a server with the given plugin chain.
    pub fn new(config: ServerConfig, plugins: Vec<Box<dyn Plugin>>) -> Self {
        DnsServer {
            config,
            plugins,
            telemetry: Telemetry::default(),
            inbox: HashMap::new(),
            next_inbox: 0,
            jobs: HashMap::new(),
            id_to_gen: HashMap::new(),
            next_gen: 0,
            next_id: 1,
            busy_until: netsim::SimTime::ZERO,
            queries_received: 0,
            responses_sent: 0,
            queries_ignored: 0,
            upstream_timeouts: 0,
            malformed: 0,
        }
    }

    /// Routes this server's (and its plugins') telemetry into `t`.
    /// Builder-style so deployment code can chain it onto `new`.
    pub fn with_telemetry(mut self, t: Telemetry) -> Self {
        self.telemetry = t;
        self
    }

    /// Immutable access to a plugin by index (for test assertions on
    /// plugin-internal counters).
    pub fn plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        let p: &dyn Plugin = self.plugins.get(index)?.as_ref();
        (p as &dyn std::any::Any).downcast_ref::<P>()
    }

    fn alloc_id(&mut self) -> u16 {
        // Skip ids currently in flight.
        for _ in 0..=u16::MAX {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.id_to_gen.contains_key(&id) {
                return id;
            }
        }
        // detlint: allow(hot-panic) — the full u16 id space in flight
        // means the workload model is broken; reusing a live id would
        // silently cross-wire responses, which is worse than aborting.
        panic!("65535 concurrent upstream queries");
    }

    /// The upstream server a job is currently waiting on.
    fn current_target(job: &Job) -> IpAddr {
        match &job.kind {
            JobKind::Forward { upstream } => *upstream,
            JobKind::Recurse(r) => r.servers[r.server_idx],
        }
    }

    /// Tells every plugin how an upstream exchange ended (see
    /// [`Plugin::on_upstream_event`]) — one event per exchange, not per
    /// retry attempt.
    fn notify_upstream(&mut self, now: netsim::SimTime, upstream: IpAddr, ok: bool) {
        for p in &mut self.plugins {
            p.on_upstream_event(now, upstream, ok);
        }
    }

    fn ctx_for(&self, now: netsim::SimTime, reply_to: &Datagram) -> QueryCtx {
        QueryCtx {
            now,
            client: reply_to.src,
            client_port: reply_to.src_port,
            telemetry: self.telemetry.clone(),
        }
    }

    /// Sends `resp` back to the client; `client_ecs` is the ECS option
    /// the client's query carried.
    fn respond(
        &mut self,
        ctx: &mut NodeContext<'_>,
        reply_to: &Datagram,
        client_ecs: Option<ClientSubnet>,
        mut resp: Message,
    ) {
        // Echo the client's ECS option if the response does not already
        // carry one (RFC 7871 §7.2.2).
        if resp.edns.as_ref().and_then(|o| o.client_subnet()).is_none() {
            if let Some(cs) = client_ecs {
                resp.edns = Some(Opt::with_client_subnet(cs));
            }
        }
        match resp.encode() {
            Ok(bytes) => {
                ctx.send_datagram(reply_to.reply_with(bytes));
                self.responses_sent += 1;
            }
            Err(_) => {
                // Encoding failures are server bugs; surface as SERVFAIL.
                let mut sf = Message::response_to(&resp).with_rcode(Rcode::ServFail);
                sf.answers.clear();
                if let Ok(bytes) = sf.encode() {
                    ctx.send_datagram(reply_to.reply_with(bytes));
                    self.responses_sent += 1;
                }
            }
        }
    }

    fn upstream_query(&self, query: &Message, id: u16, client: IpAddr, qname: &Name) -> Message {
        let mut up = Message::query(id, qname.clone(), query.question().map_or(RrType::A, |q| q.qtype));
        up.header.recursion_desired = query.header.recursion_desired;
        // ECS: propagate the client's option (unless this server is a
        // hidden resolver that strips it), or synthesise one.
        if let (Some(cs), false) = (query.client_subnet(), self.config.strip_ecs) {
            up = up.with_client_subnet(*cs);
        } else if self.config.attach_ecs {
            let prefix = match client {
                IpAddr::V4(_) => 24,
                IpAddr::V6(_) => 56,
            };
            up = up.with_client_subnet(ClientSubnet::query(client, prefix));
        }
        up
    }

    fn send_upstream(
        &mut self,
        ctx: &mut NodeContext<'_>,
        gen: u64,
        upstream: IpAddr,
        msg: &Message,
    ) {
        let bytes = msg.encode().expect("upstream query encodes");
        ctx.send(upstream, 53, bytes);
        ctx.set_timer(self.config.upstream_timeout, TAG_PENDING | gen);
    }

    fn start_job(
        &mut self,
        ctx: &mut NodeContext<'_>,
        reply_to: Datagram,
        query: Message,
        kind: JobKind,
    ) {
        let gen = self.next_gen;
        self.next_gen += 1;
        let id = self.alloc_id();
        let (target, qname) = match &kind {
            JobKind::Forward { upstream } => (
                *upstream,
                query.question().map(|q| q.qname.clone()).unwrap_or_else(Name::root),
            ),
            JobKind::Recurse(r) => (r.servers[r.server_idx], r.current_name.clone()),
        };
        let up = self.upstream_query(&query, id, reply_to.src, &qname);
        self.telemetry.incr("dns.upstream.query");
        self.telemetry.mark(
            u64::from(query.header.id),
            ctx.now(),
            "server.forward",
            || target.to_string(),
        );
        let job = Job {
            reply_to,
            query,
            kind,
            upstream_id: id,
            attempts_left: self.config.upstream_retries,
        };
        self.jobs.insert(gen, job);
        self.id_to_gen.insert(id, gen);
        self.send_upstream(ctx, gen, target, &up);
    }

    /// Re-sends the current hop of a job under a fresh transaction id.
    fn resend_job(&mut self, ctx: &mut NodeContext<'_>, gen: u64) {
        let id = self.alloc_id();
        let (old_id, target, qname, query, client) = {
            let Some(job) = self.jobs.get_mut(&gen) else {
                return;
            };
            let old = job.upstream_id;
            job.upstream_id = id;
            let (target, qname) = match &job.kind {
                JobKind::Forward { upstream } => (
                    *upstream,
                    job.query
                        .question()
                        .map(|q| q.qname.clone())
                        .unwrap_or_else(Name::root),
                ),
                JobKind::Recurse(r) => (r.servers[r.server_idx], r.current_name.clone()),
            };
            (old, target, qname, job.query.clone(), job.reply_to.src)
        };
        self.id_to_gen.remove(&old_id);
        let up = self.upstream_query(&query, id, client, &qname);
        self.id_to_gen.insert(id, gen);
        self.send_upstream(ctx, gen, target, &up);
    }

    fn finish_job(
        &mut self,
        ctx: &mut NodeContext<'_>,
        gen: u64,
        mut response: Message,
    ) {
        let Some(job) = self.jobs.remove(&gen) else {
            return;
        };
        self.id_to_gen.remove(&job.upstream_id);
        // Restore the client's transaction id and question.
        response.header.id = job.query.header.id;
        response.questions = job.query.questions.clone();
        let qctx = self.ctx_for(ctx.now(), &job.reply_to);
        for p in &mut self.plugins {
            p.on_response(&qctx, &mut response);
        }
        let client_ecs = job.query.client_subnet().copied();
        self.respond(ctx, &job.reply_to, client_ecs, response);
    }

    fn fail_job(&mut self, ctx: &mut NodeContext<'_>, gen: u64) {
        let Some(job) = self.jobs.remove(&gen) else {
            return;
        };
        self.id_to_gen.remove(&job.upstream_id);
        let resp = Message::response_to(&job.query).with_rcode(Rcode::ServFail);
        self.respond(ctx, &job.reply_to, job.query.client_subnet().copied(), resp);
    }

    fn process_query(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram, query: Message) {
        let client_ecs = query.client_subnet().copied();
        let qctx = self.ctx_for(ctx.now(), &dgram);
        let mut decision = PluginDecision::Continue;
        for p in &mut self.plugins {
            decision = p.on_query(&qctx, &query);
            if !matches!(decision, PluginDecision::Continue) {
                break;
            }
        }
        match decision {
            PluginDecision::Respond(mut resp) => {
                resp.header.id = query.header.id;
                self.respond(ctx, &dgram, client_ecs, resp);
            }
            PluginDecision::Forward { upstream } => {
                self.start_job(ctx, dgram, query, JobKind::Forward { upstream });
            }
            PluginDecision::Recurse { roots } => {
                let qname = query
                    .question()
                    .map(|q| q.qname.clone())
                    .unwrap_or_else(Name::root);
                let job = RecurseJob {
                    servers: roots.clone(),
                    roots,
                    server_idx: 0,
                    current_name: qname,
                    cname_count: 0,
                    acc: Vec::new(),
                };
                self.start_job(ctx, dgram, query, JobKind::Recurse(job));
            }
            PluginDecision::Ignore => {
                self.queries_ignored += 1;
            }
            PluginDecision::Continue => {
                // Off the end of the chain: refuse.
                let resp = Message::response_to(&query).with_rcode(Rcode::Refused);
                self.respond(ctx, &dgram, client_ecs, resp);
            }
        }
    }

    fn handle_upstream_response(&mut self, ctx: &mut NodeContext<'_>, msg: Message) {
        let Some(&gen) = self.id_to_gen.get(&msg.header.id) else {
            return; // late or spoofed; drop
        };
        if let Some(job) = self.jobs.get(&gen) {
            let target = Self::current_target(job);
            self.notify_upstream(ctx.now(), target, true);
        }
        enum Act {
            Finish(Message),
            FailHard,
            TryNextServer,
            Rehop,
        }
        let act = {
            let job = self.jobs.get_mut(&gen).expect("job for live id");
            match &mut job.kind {
                JobKind::Forward { .. } => Act::Finish(msg),
                JobKind::Recurse(r) => {
                    let qtype = job.query.question().map_or(RrType::A, |q| q.qtype);
                    if msg.header.rcode == Rcode::NxDomain {
                        let mut resp = msg;
                        let mut answers = std::mem::take(&mut r.acc);
                        answers.extend(std::mem::take(&mut resp.answers));
                        resp.answers = answers;
                        Act::Finish(resp)
                    } else if msg.header.rcode != Rcode::NoError {
                        // Treat as a dead server: try the next one.
                        Act::TryNextServer
                    } else if msg.answers.iter().any(|rec| rec.rrtype() == qtype) {
                        let mut resp = msg;
                        let mut answers = std::mem::take(&mut r.acc);
                        answers.extend(std::mem::take(&mut resp.answers));
                        resp.answers = answers;
                        Act::Finish(resp)
                    } else if let Some(c) = msg
                        .answers
                        .iter()
                        .find(|rec| rec.rrtype() == RrType::Cname)
                        .cloned()
                    {
                        // CNAME without the final type: chase it.
                        if r.cname_count >= 8 {
                            Act::FailHard
                        } else {
                            r.cname_count += 1;
                            if let dns_wire::RData::Cname(target) = &c.rdata {
                                r.current_name = target.clone();
                            }
                            r.acc.push(c);
                            r.servers = r.roots.clone();
                            r.server_idx = 0;
                            Act::Rehop
                        }
                    } else {
                        let glue: Vec<IpAddr> = msg
                            .additionals
                            .iter()
                            .filter_map(|rec| rec.rdata.as_a().map(IpAddr::V4))
                            .collect();
                        if !msg.authorities.is_empty() && !glue.is_empty() {
                            // Referral: follow the glue.
                            r.servers = glue;
                            r.server_idx = 0;
                            Act::Rehop
                        } else {
                            // NoData or glueless referral (not built in
                            // this workspace's topologies): return what
                            // we have.
                            let mut resp = msg;
                            let mut answers = std::mem::take(&mut r.acc);
                            answers.extend(std::mem::take(&mut resp.answers));
                            resp.answers = answers;
                            Act::Finish(resp)
                        }
                    }
                }
            }
        };
        match act {
            Act::Finish(resp) => self.finish_job(ctx, gen, resp),
            Act::FailHard => self.fail_job(ctx, gen),
            Act::TryNextServer => self.advance_or_fail(ctx, gen),
            Act::Rehop => self.rehop(ctx, gen),
        }
    }

    /// Sends the next hop of a recursion under a fresh id, resetting the
    /// retry budget.
    fn rehop(&mut self, ctx: &mut NodeContext<'_>, gen: u64) {
        if let Some(job) = self.jobs.get_mut(&gen) {
            job.attempts_left = self.config.upstream_retries;
        }
        self.resend_job(ctx, gen);
    }

    /// Tries the next server in a recursion's current set, or fails.
    fn advance_or_fail(&mut self, ctx: &mut NodeContext<'_>, gen: u64) {
        let advanced = {
            let Some(job) = self.jobs.get_mut(&gen) else {
                return;
            };
            match &mut job.kind {
                JobKind::Forward { .. } => false,
                JobKind::Recurse(r) => {
                    if r.server_idx + 1 < r.servers.len() {
                        r.server_idx += 1;
                        true
                    } else {
                        false
                    }
                }
            }
        };
        if advanced {
            self.rehop(ctx, gen);
        } else {
            self.fail_job(ctx, gen);
        }
    }
}

impl NodeBehavior for DnsServer {
    fn on_datagram(&mut self, ctx: &mut NodeContext<'_>, dgram: Datagram) {
        // Responses to our upstream queries come back on ephemeral ports.
        if dgram.dst_port != self.config.port {
            if let Ok(msg) = Message::decode(&dgram.payload) {
                if msg.header.is_response {
                    self.handle_upstream_response(ctx, msg);
                    return;
                }
            }
            self.malformed += 1;
            return;
        }
        // A query (or a response mistakenly sent to port 53 — ignore).
        let query = match Message::decode(&dgram.payload) {
            Ok(m) if !m.header.is_response => m,
            _ => {
                self.malformed += 1;
                return;
            }
        };
        self.queries_received += 1;
        let mut work = self.config.processing.sample(ctx.rng());
        if query.client_subnet().is_some() {
            work += self.config.ecs_processing.sample(ctx.rng());
        }
        let delay = if self.config.single_worker {
            // Queue behind whatever the worker is already doing.
            let now = ctx.now();
            let start = self.busy_until.max(now);
            self.busy_until = start + work;
            self.busy_until - now
        } else {
            work
        };
        let key = self.next_inbox;
        self.next_inbox += 1;
        self.inbox.insert(key, (dgram, query));
        ctx.set_timer(delay, TAG_INBOX | key);
    }

    fn on_timer(&mut self, ctx: &mut NodeContext<'_>, _token: TimerToken, data: u64) {
        let payload = data & !TAG_MASK;
        match data & TAG_MASK {
            TAG_INBOX => {
                if let Some((dgram, query)) = self.inbox.remove(&payload) {
                    self.process_query(ctx, dgram, query);
                }
            }
            TAG_PENDING => {
                let gen = payload;
                let retry = match self.jobs.get_mut(&gen) {
                    Some(job) if job.attempts_left > 0 => {
                        job.attempts_left -= 1;
                        true
                    }
                    Some(_) => false,
                    None => return, // already completed
                };
                self.upstream_timeouts += 1;
                self.telemetry.incr("dns.upstream.timeout");
                if retry {
                    self.telemetry.incr("dns.upstream.retry");
                    self.resend_job(ctx, gen);
                } else {
                    // Retry budget exhausted in silence: the upstream is
                    // presumed dead. Let the plugins know before the job
                    // fails over or SERVFAILs.
                    if let Some(job) = self.jobs.get(&gen) {
                        let target = Self::current_target(job);
                        self.notify_upstream(ctx.now(), target, false);
                    }
                    self.advance_or_fail(ctx, gen);
                }
            }
            _ => {}
        }
    }

    fn on_restart(&mut self, _ctx: &mut NodeContext<'_>) {
        // Cold start after a crash: every queued query and in-flight
        // upstream exchange lived in process memory and is gone. The
        // cumulative counters survive — they model external scraping, not
        // process state — and clients see silence for anything dropped.
        self.inbox.clear();
        self.jobs.clear();
        self.id_to_gen.clear();
        self.busy_until = netsim::SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plugins::AuthoritativePlugin;
    use crate::zone::Zone;
    use netsim::{Network, NodeId};
    use std::net::Ipv4Addr;

    struct Probe {
        server: IpAddr,
        payloads: Vec<Vec<u8>>,
        replies: Vec<Message>,
    }
    impl NodeBehavior for Probe {
        fn on_start(&mut self, ctx: &mut NodeContext<'_>) {
            for p in self.payloads.clone() {
                ctx.send(self.server, 53, p);
            }
        }
        fn on_datagram(&mut self, _ctx: &mut NodeContext<'_>, dgram: Datagram) {
            if let Ok(m) = Message::decode(&dgram.payload) {
                self.replies.push(m);
            }
        }
    }

    fn world(plugins: Vec<Box<dyn Plugin>>, payloads: Vec<Vec<u8>>) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(5);
        let server = net.add_node(
            "server",
            ["10.0.0.1".parse::<IpAddr>().unwrap()],
            DnsServer::new(ServerConfig::default(), plugins),
        );
        let probe = net.add_node(
            "probe",
            ["10.0.0.2".parse::<IpAddr>().unwrap()],
            Probe {
                server: "10.0.0.1".parse().unwrap(),
                payloads,
                replies: vec![],
            },
        );
        net.connect(
            probe,
            server,
            netsim::LinkProfile::with_latency(Latency::ConstantMs(1.0)),
        );
        net.run();
        (net, server, probe)
    }

    #[test]
    fn garbage_counts_as_malformed_and_gets_no_reply() {
        let (net, server, probe) = world(vec![], vec![vec![0xDE, 0xAD], vec![]]);
        assert_eq!(net.behavior::<DnsServer>(server).malformed, 2);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn empty_plugin_chain_refuses() {
        let q = Message::query(7, Name::parse("x.test").unwrap(), RrType::A);
        let (net, server, probe) = world(vec![], vec![q.encode().unwrap()]);
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.rcode, Rcode::Refused);
        assert_eq!(replies[0].header.id, 7);
        assert_eq!(net.behavior::<DnsServer>(server).responses_sent, 1);
    }

    #[test]
    fn response_id_and_question_echo_the_query() {
        let mut zone = Zone::new(Name::parse("z.test").unwrap());
        zone.add_a(Name::parse("a.z.test").unwrap(), Ipv4Addr::new(4, 4, 4, 4), 60);
        let q = Message::query(0xABCD, Name::parse("a.z.test").unwrap(), RrType::A);
        let (net, _server, probe) = world(
            vec![Box::new(AuthoritativePlugin::new(vec![zone]))],
            vec![q.encode().unwrap()],
        );
        let replies = &net.behavior::<Probe>(probe).replies;
        assert_eq!(replies.len(), 1);
        assert_eq!(replies[0].header.id, 0xABCD);
        assert_eq!(replies[0].questions, q.questions);
        assert!(replies[0].header.is_response);
    }

    #[test]
    fn responses_sent_to_the_service_port_are_ignored() {
        // A spoofed "response" aimed at port 53 must not crash or be
        // treated as a query.
        let mut resp = Message::query(9, Name::parse("x.test").unwrap(), RrType::A);
        resp.header.is_response = true;
        let (net, server, probe) = world(vec![], vec![resp.encode().unwrap()]);
        let s = net.behavior::<DnsServer>(server);
        assert_eq!(s.queries_received, 0);
        assert_eq!(s.malformed, 1);
        assert!(net.behavior::<Probe>(probe).replies.is_empty());
    }

    #[test]
    fn plugin_accessor_downcasts_by_index() {
        let server = DnsServer::new(
            ServerConfig::default(),
            vec![Box::new(crate::plugins::CachePlugin::new(8))],
        );
        assert!(server.plugin::<crate::plugins::CachePlugin>(0).is_some());
        assert!(server.plugin::<crate::plugins::ForwardPlugin>(0).is_none());
        assert!(server.plugin::<crate::plugins::CachePlugin>(1).is_none());
    }
}
