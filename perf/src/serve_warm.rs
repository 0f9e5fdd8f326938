//! `serve_warm`: an attested deployment turned into a [`QueryServer`];
//! `min(nproc, 4)` closed-loop sessions (one client thread each, as many
//! workers) each run all paper queries in a seed-rotated order against
//! one shared dataset whose page cache the warm-up pass filled. The
//! concurrent workload: `sql` joins and aggregates, `csa::net` row
//! shipping and `serve` do the work and page crypto almost none.

use crate::scan_cold::seeded_q6;
use crate::workload::{
    digest, plain_database, time_ms, tpch_user_bytes, ExitReport, Instance, OpCounts, PassResult,
    ProbeInput, RunConfig, Workload,
};
use ironsafe::Deployment;
use ironsafe_csa::CostParams;
use ironsafe_obs::{Registry, Span, Trace};
use ironsafe_serve::{AdmitError, Job, QueryServer, ServeConfig, SessionHandle};
use ironsafe_sql::catalog::Catalog;
use ironsafe_sql::heap::SharedPager;
use ironsafe_sql::Database;
use ironsafe_storage::BLOCK_SIZE;
use ironsafe_tpch::{PaperQuery, TpchData};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Barrier;

/// The workload.
pub struct ServeWarm;

/// Sessions (= client threads = workers): at most one runnable thread per
/// core, since a client blocks while a worker runs its request.
pub fn sessions() -> usize {
    std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(4)
}

struct ServeWarmInstance {
    data: TpchData,
    server: QueryServer,
    handles: Vec<SessionHandle>,
    queries: Vec<PaperQuery>,
    /// `order[s][i]`: index into `queries` of session `s`'s `i`-th request.
    order: Vec<Vec<usize>>,
    names: Vec<String>,
    registry: Registry,
    pager: SharedPager,
    catalog: Catalog,
    params: CostParams,
    stored_bytes: u64,
    oracle: Option<Database>,
}

impl Workload for ServeWarm {
    fn nominal_pass_s(&self) -> f64 {
        0.74
    }

    fn setup(&self, cfg: &RunConfig) -> Box<dyn Instance> {
        let data = cfg.data();
        let mut dep = Deployment::builder()
            .seed(cfg.seed)
            .build()
            .expect("attestation succeeds");
        dep.create_database(
            "tpch",
            "read :- sessionKeyIs(analyst)\nwrite :- sessionKeyIs(loader)",
        );
        ironsafe_tpch::load_into(dep.system_mut().storage_db_mut(), &data).expect("secure load");
        dep.system().storage_db().reset_pager_stats();

        let registry = Registry::new();
        dep.system().storage_db().register_metrics(&registry);
        dep.monitor().register_metrics(&registry);
        let pager = dep.system().storage_db().pager().clone();
        let catalog = dep.system().storage_db().catalog().clone();
        let params = dep.system().params.clone();
        let stored_bytes = pager.lock().num_pages() * BLOCK_SIZE as u64;

        let n = sessions();
        let server = dep.serve(ServeConfig {
            workers: n,
            queue_capacity: 2,
            ..ServeConfig::default()
        });
        server.metrics().register(&registry);
        let handles: Vec<SessionHandle> = (0..n)
            .map(|_| server.open_session("analyst", "tpch"))
            .collect();

        let mut queries = ironsafe_tpch::paper_queries();
        if cfg.smoke {
            queries.truncate(6);
        }
        // The seed draws the parameters of one more query and picks where
        // the rotation starts; sessions stay evenly spaced around it, so
        // which queries overlap does not depend on it.
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e77e);
        queries.push(seeded_q6(101, &mut rng));
        let start = rng.gen_range(0..queries.len());
        let order: Vec<Vec<usize>> = (0..n)
            .map(|s| {
                let rot = start + s * queries.len() / n;
                (0..queries.len())
                    .map(|i| (i + rot) % queries.len())
                    .collect()
            })
            .collect();
        let names = order
            .iter()
            .enumerate()
            .flat_map(|(s, o)| o.iter().map(move |&qi| (s, qi)))
            .map(|(s, qi)| format!("serve_warm/s{s}/q{}", queries[qi].id))
            .collect();
        Box::new(ServeWarmInstance {
            data,
            server,
            handles,
            queries,
            order,
            names,
            registry,
            pager,
            catalog,
            params,
            stored_bytes,
            oracle: None,
        })
    }
}

/// Closed-loop submit: a session never has more than one request in
/// flight, so a refusal here is a failure of the server, not backpressure.
fn submit_and_wait(
    server: &QueryServer,
    session: u64,
    q: &PaperQuery,
) -> Result<ironsafe_csa::QueryReport, String> {
    let ticket = loop {
        match server.submit(session, Job::Query(q.clone())) {
            Ok(t) => break t,
            Err(AdmitError::Busy) => std::thread::yield_now(),
            Err(e) => return Err(e.to_string()),
        }
    };
    ticket.wait().outcome.map_err(|e| e.to_string())
}

impl Instance for ServeWarmInstance {
    fn positions(&self) -> &[String] {
        &self.names
    }

    fn sessions(&self) -> usize {
        self.handles.len()
    }

    fn oracle_pass(&mut self) -> Vec<u64> {
        let db = self
            .oracle
            .get_or_insert_with(|| plain_database(&self.data));
        // One plain run per position, not per distinct query: the replay
        // is also timed as `sql.exec_plain_ms`, which must cover the pass.
        let queries = &self.queries;
        self.order
            .iter()
            .flatten()
            .map(|&qi| {
                digest(&ironsafe_tpch::queries::run_query(db, &queries[qi]).expect("plain run"))
            })
            .collect()
    }

    fn run_pass(&mut self, expected: &[u64]) -> PassResult {
        let per_session = self.queries.len();
        let start = Barrier::new(self.handles.len() + 1);
        let trace = Trace::current();
        let results = std::thread::scope(|scope| {
            let clients: Vec<_> = self
                .handles
                .iter()
                .enumerate()
                .map(|(s, handle)| {
                    let (start, trace) = (&start, trace.clone());
                    let (server, queries, params) = (&self.server, &self.queries, &self.params);
                    let (order, names) = (&self.order[s], &self.names);
                    scope.spawn(move || {
                        let _installed = trace.as_ref().map(Trace::install);
                        let mut part = PassResult::default();
                        start.wait();
                        for (i, &qi) in order.iter().enumerate() {
                            let pos = s * per_session + i;
                            let _span = Span::enter(&names[pos]);
                            let (res, ms) =
                                time_ms(|| submit_and_wait(server, handle.id, &queries[qi]));
                            let verdict = res.map(|r| {
                                (OpCounts::of(&r, params), digest(&r.result) == expected[pos])
                            });
                            part.record(&names[pos], ms, verdict);
                        }
                        part
                    })
                })
                .collect();
            start.wait();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread"))
                .collect::<Vec<PassResult>>()
        });
        let mut pass = PassResult::default();
        for part in results {
            pass.lat_ms.extend(part.lat_ms);
            pass.failures.extend(part.failures);
            pass.counts.add(&part.counts);
        }
        pass
    }

    fn registry(&self) -> &Registry {
        &self.registry
    }

    fn probe_input(&self) -> ProbeInput<'_> {
        ProbeInput {
            data: &self.data,
            pager: self.pager.clone(),
            catalog: self.catalog.clone(),
            sql: self
                .queries
                .iter()
                .flat_map(|q| q.stages.iter().map(|s| s.sql.clone()))
                .collect(),
            params: self.params.clone(),
            view_per_request: true,
            probe_federation: false,
        }
    }

    fn stored_bytes(&self) -> u64 {
        self.stored_bytes
    }

    fn user_bytes(&self) -> u64 {
        tpch_user_bytes(&self.data)
    }

    fn layer_metrics(&self, raw_total_ms: f64) -> Vec<(&'static str, f64)> {
        let m = self.server.metrics();
        let done = m.completed.get().max(1) as f64;
        // What the client waited beyond the worker's service window and
        // the queue: submit, dispatch, reply channel and thread wake-ups.
        let in_server_us = (m.queue_wait_ns.sum() + m.service_ns.sum()) as f64 / 1e3;
        vec![
            (
                "serve.dispatch_overhead_us",
                (raw_total_ms * 1e3 - in_server_us) / done,
            ),
            (
                "serve.queue_wait_p50_us",
                m.queue_wait_ns.snapshot().quantile_upper_bound(0.5) as f64 / 1e3,
            ),
            (
                "serve.service_p50_us",
                m.service_ns.snapshot().quantile_upper_bound(0.5) as f64 / 1e3,
            ),
            (
                "serve.rejected_share",
                m.rejected.get() as f64 / (m.rejected.get() as f64 + done),
            ),
        ]
    }

    fn discard(self: Box<Self>) {
        drop(self.server.shutdown());
    }

    fn finish(self: Box<Self>) -> ExitReport {
        let this = *self;
        let metrics = this.server.shutdown();
        let drained = metrics.admitted.get() == metrics.completed.get();
        ExitReport {
            checks: 1,
            failed_checks: u64::from(!drained),
            recover_ms: 0.0,
        }
    }
}
