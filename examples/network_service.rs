//! The serving layer end to end, in one process: spin up a
//! [`fasea::serve::Server`] on a loopback port, drive it with three
//! concurrent client sessions that share the round stream via
//! `CLAIM`/`PROPOSE`/`FEEDBACK`, then print the server's `STATS`
//! snapshot and shut it down gracefully.
//!
//! Feedback uses common random numbers keyed on `(t, v)`, so the final
//! accounting is the same no matter how the three sessions interleave.
//!
//! ```text
//! cargo run --release --example network_service
//! ```

use fasea::bandit::LinUcb;
use fasea::core::EventId;
use fasea::datagen::{SyntheticConfig, SyntheticWorkload};
use fasea::serve::{ClientConfig, ServeClient, Server, ServerConfig};
use fasea::sim::DurableOptions;
use fasea::stats::CoinStream;
use fasea::store::TempDir;
use fasea::{DurableArrangementService, FsyncPolicy};

const SEED: u64 = 7;
const NUM_EVENTS: usize = 12;
const DIM: usize = 4;
const ROUNDS: u64 = 120;
const CLIENTS: usize = 3;

fn workload() -> SyntheticWorkload {
    SyntheticWorkload::generate(SyntheticConfig {
        num_events: NUM_EVENTS,
        dim: DIM,
        seed: SEED,
        ..SyntheticConfig::default()
    })
}

fn main() {
    let dir = TempDir::new("network-service");

    let svc = DurableArrangementService::open(
        &dir,
        workload().instance,
        Box::new(LinUcb::new(DIM, 1.0, 2.0)),
        // demo: throughput over durability
        DurableOptions::new().with_fsync(FsyncPolicy::Never),
    )
    .expect("open durable service");

    // Port 0: the OS picks a free port; the handle reports it.
    let handle = Server::spawn(svc, "127.0.0.1:0", ServerConfig::default()).expect("spawn server");
    let addr = handle.local_addr().to_string();
    println!("server listening on {addr}");

    std::thread::scope(|s| {
        for id in 0..CLIENTS {
            let addr = addr.clone();
            s.spawn(move || drive_session(id, &addr));
        }
    });

    let mut control =
        ServeClient::connect(addr, ClientConfig::default()).expect("control connection");
    let stats = control.stats().expect("STATS");
    println!("\n--- server STATS after {ROUNDS} rounds ---");
    print!("{}", stats.render());
    assert_eq!(stats.rounds_completed, ROUNDS);

    control.shutdown_server().expect("SHUTDOWN");
    let report = handle.join();
    println!(
        "\nserver drained: rounds={} final snapshot={:?}",
        report.close.rounds_completed,
        report.close.snapshot.as_deref()
    );
}

/// One session: claim rounds until the shared counter reaches the
/// target, proposing the deterministic arrival for each granted `t` and
/// answering with CRN feedback.
fn drive_session(id: usize, addr: &str) {
    let workload = workload();
    let coins = CoinStream::new(SEED ^ 0xFEED);
    let mut client =
        ServeClient::connect(addr.to_string(), ClientConfig::default()).expect("connect");
    let info = client.info().expect("handshake info");
    println!(
        "client {id}: connected (fingerprint={:#018x}, {} events, d={})",
        info.fingerprint, info.num_events, info.dim
    );
    let mut served = 0u64;
    loop {
        let claimed = client.claim().expect("CLAIM");
        if claimed.t >= ROUNDS {
            client.release().expect("RELEASE");
            break;
        }
        let t = claimed.t;
        let arrival = workload.arrivals.arrival(t);
        let arrangement = match claimed.pending {
            Some(pending) => pending,
            None => {
                client
                    .propose(
                        arrival.capacity,
                        NUM_EVENTS as u32,
                        DIM as u32,
                        arrival.contexts.as_slice().to_vec(),
                    )
                    .expect("PROPOSE")
                    .1
            }
        };
        let accepts: Vec<bool> = arrangement
            .iter()
            .map(|&v| {
                coins.uniform(t, v as u64)
                    < workload
                        .model
                        .accept_probability(&arrival.contexts, EventId(v as usize))
            })
            .collect();
        client.feedback(&accepts).expect("FEEDBACK");
        served += 1;
    }
    println!("client {id}: served {served} rounds");
}
