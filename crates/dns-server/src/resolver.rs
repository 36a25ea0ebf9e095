//! The resolver core under [`crate::server::DnsServer`] and
//! [`crate::engine::ServeEngine`]: events in (a client query, an upstream
//! response, a retransmit timer, each with the caller's `now`), [`Action`]s
//! out, into a buffer the caller owns. It reads no clock and owns no
//! socket; each engine is an adapter that carries the actions out on its
//! own transport. The plugin-chain loop, ECS attach, strip and echo,
//! upstream ids, retransmits and iterative recursion exist only here. On
//! the resolution hot path (`hot-panic` / `hot-index` apply): upstream
//! answers are outside input.

use crate::plugin::{Plugin, PluginDecision, QueryCtx};
use crate::server::ServerConfig;
use dns_wire::{
    ClientSubnet, Header, Message, Name, Opt, Question, RData, Rcode, Record, RrClass, RrType,
};
use netsim::{SimTime, Telemetry};
use std::collections::HashMap;
use std::net::IpAddr;

/// CNAMEs a recursion follows before it gives up on the name.
const MAX_CNAMES: u8 = 8;

/// Where a query came from — `addr` and `port` are what plugins see in
/// [`QueryCtx`] — and `local`, the address it reached, which answers it.
#[derive(Clone, Copy)]
pub(crate) struct Client {
    pub(crate) addr: IpAddr,
    pub(crate) port: u16,
    pub(crate) local: IpAddr,
}

/// What the caller must do, in the order the core emitted it.
pub(crate) enum Action {
    /// Send answer `msg` to client `to`.
    Reply { to: Client, msg: Message },
    /// Send query `msg` to port 53 of `to`, and call
    /// [`Resolver::on_timer`] with `timer` (below 2^48: the job and the
    /// upstream id of the attempt) at `at`. Timers are never cancelled:
    /// the core ignores one whose attempt has ended.
    Send {
        to: IpAddr,
        msg: Message,
        at: SimTime,
        timer: u64,
    },
}

/// Where an iterative resolution stands.
struct Recursion {
    roots: Vec<IpAddr>,
    /// The servers that may answer the current hop, asked in order.
    servers: Vec<IpAddr>,
    /// Where a CNAME redirected the name; until one does, the client's.
    cname_target: Option<Name>,
    cname_count: u8,
    /// The CNAMEs followed so far, put ahead of the final answer.
    acc: Vec<Record>,
}

impl Recursion {
    fn with_chain(&mut self, mut msg: Message) -> Message {
        let mut answers = std::mem::take(&mut self.acc);
        answers.append(&mut msg.answers);
        msg.answers = answers;
        msg
    }
}

enum JobKind {
    Forward { upstream: IpAddr },
    Recurse(Recursion),
}

/// A query waiting on upstream answers.
struct Job {
    client: Client,
    /// The answer's skeleton: the client's id, opcode, RD bit and
    /// question, which every answer echoes whatever came back upstream.
    reply: Message,
    client_ecs: Option<ClientSubnet>,
    kind: JobKind,
    /// Names the job in its timers.
    serial: u32,
    /// Which server of the hop the current attempt asks: a forward has
    /// one, a recursion hop the servers its referral named.
    server_idx: usize,
    attempts_left: u8,
}

impl Job {
    /// The server the current attempt asks; `None` when none is left,
    /// which fails the job.
    fn target(&self) -> Option<IpAddr> {
        match &self.kind {
            JobKind::Forward { upstream } => Some(*upstream).filter(|_| self.server_idx == 0),
            JobKind::Recurse(r) => r.servers.get(self.server_idx).copied(),
        }
    }

    /// Moves on to the hop's next server, with a fresh retry budget.
    fn next_server(&mut self, retries: u8) {
        self.server_idx += 1;
        self.attempts_left = retries;
    }

    /// The query for the current attempt under upstream id `id`, rebuilt
    /// in `up`, a spare query whose buffers it reuses.
    fn upstream_query(&self, mut up: Message, id: u16, config: &ServerConfig) -> Message {
        let (question, root) = (self.reply.question(), Name::root());
        let cname = match &self.kind {
            JobKind::Recurse(r) => r.cname_target.as_ref(),
            JobKind::Forward { .. } => None,
        };
        let qname = cname.or(question.map(|q| &q.qname)).unwrap_or(&root);
        let qtype = question.map_or(RrType::A, |q| q.qtype);
        up.header = Header::query(id);
        up.header.recursion_desired = self.reply.header.recursion_desired;
        up.questions
            .resize_with(1, || Question::new(Name::root(), qtype));
        if let Some(q) = up.questions.first_mut() {
            q.qname.clone_from(qname);
            (q.qtype, q.qclass) = (qtype, RrClass::In);
        }
        up.edns = None;
        // ECS: propagate the client's option (unless this server is a
        // hidden resolver that strips it), or synthesise one.
        match self.client_ecs {
            Some(cs) if !config.strip_ecs => up.with_client_subnet(cs),
            _ if config.attach_ecs => {
                let prefix = match self.client.addr {
                    IpAddr::V4(_) => 24,
                    IpAddr::V6(_) => 56,
                };
                up.with_client_subnet(ClientSubnet::query(self.client.addr, prefix))
            }
            _ => up,
        }
    }

    /// Reads an upstream answer: `Some` is the client's answer, `None`
    /// asks again (the hop's next server, or the recursion's next hop).
    fn on_answer(&mut self, msg: Message, retries: u8) -> Option<Message> {
        let JobKind::Recurse(r) = &mut self.kind else {
            return Some(msg);
        };
        let qtype = self.reply.question().map_or(RrType::A, |q| q.qtype);
        if msg.header.rcode == Rcode::NxDomain {
            return Some(r.with_chain(msg));
        }
        if msg.header.rcode != Rcode::NoError {
            // Treat as a dead server: try the next one.
            self.next_server(retries);
            return None;
        }
        if msg.answers.iter().any(|rec| rec.rrtype() == qtype) {
            return Some(r.with_chain(msg));
        }
        if let Some(c) = msg.answers.iter().find(|rec| rec.rrtype() == RrType::Cname) {
            if r.cname_count >= MAX_CNAMES {
                // Too long a chain: leave no server to ask.
                r.servers.clear();
            } else {
                // CNAME without the final type: chase it from the roots.
                r.cname_count += 1;
                if let RData::Cname(target) = &c.rdata {
                    r.cname_target = Some(target.clone());
                }
                r.acc.push(c.clone());
                r.servers = r.roots.clone();
            }
        } else {
            let glue: Vec<IpAddr> = msg
                .additionals
                .iter()
                .filter_map(|rec| rec.rdata.as_a().map(IpAddr::V4))
                .collect();
            if msg.authorities.is_empty() || glue.is_empty() {
                // NoData or a glueless referral (not built in this
                // workspace's topologies): return what we have.
                return Some(r.with_chain(msg));
            }
            // Referral: follow the glue.
            r.servers = glue;
        }
        self.server_idx = 0;
        self.attempts_left = retries;
        None
    }
}

/// One plugin chain and the upstream exchanges it has in flight.
pub(crate) struct Resolver {
    pub(crate) config: ServerConfig,
    plugins: Vec<Box<dyn Plugin>>,
    pub(crate) telemetry: Telemetry,
    /// Queries waiting on upstream answers, by their attempt's upstream id.
    jobs: HashMap<u16, Job>,
    next_id: u16,
    next_serial: u32,
    /// Sent queries the caller gave back, for the next ones to reuse.
    spare: Vec<Message>,
    /// Queries dropped by a [`PluginDecision::Ignore`].
    pub(crate) ignored: u64,
    /// Upstream attempts that timed out.
    pub(crate) upstream_timeouts: u64,
}

impl Resolver {
    pub(crate) fn new(config: ServerConfig, plugins: Vec<Box<dyn Plugin>>) -> Self {
        Resolver {
            config,
            plugins,
            telemetry: Telemetry::default(),
            jobs: HashMap::new(),
            next_id: 1,
            next_serial: 0,
            spare: Vec::new(),
            ignored: 0,
            upstream_timeouts: 0,
        }
    }

    /// The plugin at `index`, downcast to its concrete type.
    pub(crate) fn plugin<P: Plugin + 'static>(&self, index: usize) -> Option<&P> {
        let p: &dyn Plugin = self.plugins.get(index)?.as_ref();
        (p as &dyn std::any::Any).downcast_ref::<P>()
    }

    /// Takes back a query of an [`Action::Send`] once it is sent, so the
    /// next upstream query reuses its buffers instead of allocating.
    pub(crate) fn recycle(&mut self, msg: Message) {
        if self.spare.len() < 4 {
            self.spare.push(msg);
        }
    }

    /// Forgets every exchange in flight (a crash); counters survive.
    pub(crate) fn clear(&mut self) {
        self.jobs.clear();
    }

    /// A client query: the chain answers, refuses or ignores it, or an
    /// upstream exchange starts.
    pub(crate) fn on_query(
        &mut self,
        now: SimTime,
        client: Client,
        query: &Message,
        out: &mut Vec<Action>,
    ) {
        let ctx = self.ctx(now, client);
        let mut decision = PluginDecision::Continue;
        for p in &mut self.plugins {
            decision = p.on_query(&ctx, query);
            if !matches!(decision, PluginDecision::Continue) {
                break;
            }
        }
        let client_ecs = query.client_subnet().copied();
        let kind = match decision {
            PluginDecision::Respond(mut resp) => {
                resp.header.id = query.header.id;
                return out.push(reply(client, client_ecs, resp));
            }
            PluginDecision::Forward { upstream } => JobKind::Forward { upstream },
            PluginDecision::Recurse { roots } => JobKind::Recurse(Recursion {
                servers: roots.clone(),
                roots,
                cname_target: None,
                cname_count: 0,
                acc: Vec::new(),
            }),
            PluginDecision::Ignore => {
                self.ignored += 1;
                return;
            }
            PluginDecision::Continue => {
                // Off the end of the chain: refuse.
                let resp = Message::response_to(query).with_rcode(Rcode::Refused);
                return out.push(reply(client, client_ecs, resp));
            }
        };
        let job = Job {
            client,
            reply: Message::response_to(query),
            client_ecs,
            kind,
            serial: self.next_serial,
            server_idx: 0,
            attempts_left: self.config.upstream_retries,
        };
        self.next_serial = self.next_serial.wrapping_add(1);
        // Only a recursion with no root to start from has no target; its
        // first send fails it.
        if let Some(target) = job.target() {
            self.telemetry.incr("dns.upstream.query");
            let id = u64::from(query.header.id);
            self.telemetry
                .mark(id, now, "server.forward", || target.to_string());
        }
        out.push(self.send(now, job));
    }

    /// An upstream response.
    pub(crate) fn on_response(&mut self, now: SimTime, msg: Message, out: &mut Vec<Action>) {
        // One that matches no attempt in flight is late or spoofed: drop it.
        let Some(mut job) = self.jobs.remove(&msg.header.id) else {
            return;
        };
        if let Some(target) = job.target() {
            self.notify(now, target, true);
        }
        out.push(match job.on_answer(msg, self.config.upstream_retries) {
            Some(resp) => self.finish(now, job, resp),
            None => self.send(now, job),
        });
    }

    /// A retransmit timer: re-send the attempt within the retry budget,
    /// else give up on its server.
    pub(crate) fn on_timer(&mut self, now: SimTime, timer: u64, out: &mut Vec<Action>) {
        // A timer outlives its attempt when a referral, a CNAME or the
        // next server takes over; only the live attempt's timer counts.
        let id = timer as u16;
        let stale = |job: &Job| u64::from(job.serial) != timer >> 16;
        if self.jobs.get(&id).is_none_or(stale) {
            return;
        }
        let Some(mut job) = self.jobs.remove(&id) else {
            return;
        };
        self.upstream_timeouts += 1;
        self.telemetry.incr("dns.upstream.timeout");
        if job.attempts_left > 0 {
            job.attempts_left -= 1;
            self.telemetry.incr("dns.upstream.retry");
            return out.push(self.send(now, job));
        }
        // Out of retries: the upstream is presumed dead. Tell the plugins
        // before the job fails over or SERVFAILs.
        if let Some(target) = job.target() {
            self.notify(now, target, false);
        }
        job.next_server(self.config.upstream_retries);
        out.push(self.send(now, job));
    }

    fn ctx(&self, now: SimTime, client: Client) -> QueryCtx {
        QueryCtx {
            now,
            client: client.addr,
            client_port: client.port,
            telemetry: self.telemetry.clone(),
        }
    }

    fn alloc_id(&mut self) -> u16 {
        // Skip ids currently in flight.
        for _ in 0..=u16::MAX {
            let id = self.next_id;
            self.next_id = self.next_id.wrapping_add(1).max(1);
            if !self.jobs.contains_key(&id) {
                return id;
            }
        }
        // detlint: allow(hot-panic) — the full u16 id space in flight
        // means the workload model is broken; reusing a live id would
        // silently cross-wire responses, which is worse than aborting.
        panic!("65535 concurrent upstream queries");
    }

    /// Tells every plugin how an upstream exchange ended (see
    /// [`Plugin::on_upstream_event`]) — one event per exchange, not per
    /// retry attempt.
    fn notify(&mut self, now: SimTime, upstream: IpAddr, ok: bool) {
        for p in &mut self.plugins {
            p.on_upstream_event(now, upstream, ok);
        }
    }

    /// Sends the job's current attempt under a fresh upstream id, or
    /// fails the job when it has no server left to ask.
    fn send(&mut self, now: SimTime, job: Job) -> Action {
        let Some(to) = job.target() else {
            let resp = job.reply.with_rcode(Rcode::ServFail);
            return reply(job.client, job.client_ecs, resp);
        };
        let id = self.alloc_id();
        let spare = self.spare.pop();
        let spare = spare.unwrap_or_else(|| Message::query(0, Name::root(), RrType::A));
        let msg = job.upstream_query(spare, id, &self.config);
        let at = now + self.config.upstream_timeout;
        let timer = u64::from(job.serial) << 16 | u64::from(id);
        self.jobs.insert(id, job);
        Action::Send { to, msg, at, timer }
    }

    /// Relays an upstream answer to the client, through every plugin's
    /// [`Plugin::on_response`] (how caches fill).
    fn finish(&mut self, now: SimTime, job: Job, mut response: Message) -> Action {
        response.header.id = job.reply.header.id;
        response.header.opcode = job.reply.header.opcode;
        response.questions = job.reply.questions;
        let ctx = self.ctx(now, job.client);
        for p in &mut self.plugins {
            p.on_response(&ctx, &mut response);
        }
        reply(job.client, job.client_ecs, response)
    }
}

/// Answers `to`, echoing the client's ECS option when the answer does not
/// carry one of its own (RFC 7871 §7.2.2).
fn reply(to: Client, client_ecs: Option<ClientSubnet>, mut msg: Message) -> Action {
    if msg.client_subnet().is_none() {
        if let Some(cs) = client_ecs {
            msg.edns = Some(Opt::with_client_subnet(cs));
        }
    }
    Action::Reply { to, msg }
}
