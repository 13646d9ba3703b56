//! The system under test, hosted inside the harness process: a durable
//! store, a server over it with one worker per core, and the TCP veneer
//! on a loopback port. Nothing here sets a store option: the flush
//! policy is the shipped one (`sync_data` on every commit).

use std::net::{SocketAddr, TcpListener};
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

use semistructured::Database;
use ssd_guard::Budget;
use ssd_serve::net::serve_tcp;
use ssd_serve::{ServeConfig, Server, SessionQuota};
use ssd_store::{RecoveryReport, Store};
use ssd_workload::driver::{bench_quota, DriveConfig};
use ssd_workload::gen::build_graph;

use crate::input::Inputs;
use crate::stats::nproc;
use crate::wire::Client;

/// Scratch space inside the checkout; `.gitignore` names it.
pub const OUT_DIR: &str = "benchmark/out";

pub struct Host {
    pub store: Arc<Store>,
    pub server: Arc<Server>,
    pub addr: SocketAddr,
    pub dir: PathBuf,
    accept: JoinHandle<std::io::Result<()>>,
}

/// Wall time of the steps inside [`Host::start`], for the per-layer run.
#[derive(Debug, Default, Clone, Copy)]
pub struct SetupTimes {
    pub generate_s: f64,
    pub init_s: f64,
    pub open_s: f64,
    pub warmup_s: f64,
    pub total_s: f64,
}

/// Unmetered sessions with a per-job ceiling far above any op here, as
/// `ssd bench` runs them; the queue bound is the server default.
pub fn quota() -> SessionQuota {
    bench_quota(&DriveConfig {
        workers: nproc(),
        queue_cap: ServeConfig::default().queue_cap,
        ..DriveConfig::default()
    })
}

impl Host {
    /// Generate the graph, `Store::init` + `Store::open` a fresh
    /// directory, start the server and its listener, then issue each op
    /// shape of the workload once so the lazy per-snapshot structures
    /// (triple index, planner statistics) and the server's estimator
    /// statistics exist before anything is timed.
    pub fn start(inputs: &Inputs) -> Result<(Host, SetupTimes), String> {
        let t0 = Instant::now();
        let graph = build_graph(&inputs.cfg);
        let generate_s = t0.elapsed().as_secs_f64();

        let dir = PathBuf::from(OUT_DIR).join(format!(
            "store.{}.{}",
            inputs.workload.name(),
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let t1 = Instant::now();
        Store::init(&dir, &Database::new(graph)).map_err(|e| format!("store init: {e}"))?;
        let init_s = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let (store, _) = open(&dir)?;
        let open_s = t2.elapsed().as_secs_f64();

        let store = Arc::new(store);
        let server = Arc::new(Server::start_with_store(
            Arc::clone(&store),
            ServeConfig {
                workers: nproc(),
                ..ServeConfig::default()
            },
        ));
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;
        let accept = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || serve_tcp(server, listener, quota(), false))
        };
        let host = Host {
            store,
            server,
            addr,
            dir,
            accept,
        };

        let t3 = Instant::now();
        let mut client = Client::connect(addr)?;
        for op in inputs.shapes() {
            let reply = client.call(&op)?;
            if let Some(e) = reply.error {
                return Err(format!("warm-up {} failed: {e}", op.class.name()));
            }
        }
        drop(client);
        let times = SetupTimes {
            generate_s,
            init_s,
            open_s,
            warmup_s: t3.elapsed().as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok((host, times))
    }

    /// Drain the server, end the accept loop and give the store back so
    /// the caller can drop it before reopening the directory.
    pub fn stop(self) -> Result<(Arc<Store>, PathBuf), String> {
        self.server.shutdown();
        self.accept
            .join()
            .map_err(|_| "accept loop panicked".to_string())?
            .map_err(|e| format!("accept loop: {e}"))?;
        // `serve_tcp` detaches its connection threads, and each holds the
        // server (and through it the store and its graph) until it sees
        // its socket closed. Wait for them, so that the memory is gone
        // before the next set-up or the recovery allocates.
        let patience = Instant::now();
        while Arc::strong_count(&self.server) > 1 && patience.elapsed().as_secs() < 2 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        Ok((self.store, self.dir))
    }

    /// [`Host::stop`], then delete the store directory.
    pub fn discard(self) -> Result<(), String> {
        let (_, dir) = self.stop()?;
        std::fs::remove_dir_all(&dir).map_err(|e| format!("remove {}: {e}", dir.display()))
    }
}

pub fn open(dir: &std::path::Path) -> Result<(Store, RecoveryReport), String> {
    Store::open(dir, &Budget::unlimited()).map_err(|e| format!("store open: {e}"))
}
