//! A multi-user team repository over the threaded deployment: three
//! developers committing concurrently to one trusted-cvs server, with a
//! conflict, an annotate, and a final out-of-band sync-up.
//!
//! Run with: `cargo run -p tcvs-bench --example team_repo`

use tcvs_core::{HonestServer, Op, OpResult, ProtocolConfig, SyncShare};
use tcvs_cvs::{Cvs, CvsError, VerifiedDb};
use tcvs_merkle::MerkleTree;
use tcvs_net::{NetClient2, NetError, NetServer, NetServerOptions};

/// Adapts a threaded Protocol II client into a CVS session.
struct NetSession(NetClient2);

impl VerifiedDb for NetSession {
    fn execute(&mut self, op: &Op) -> Result<OpResult, CvsError> {
        self.0.execute(op).map_err(|e| match e {
            NetError::Deviation(d) => CvsError::Deviation(d),
            other => CvsError::Network(other.to_string()),
        })
    }
}

fn main() {
    let config = ProtocolConfig {
        order: 16,
        k: u64::MAX, // sync performed explicitly at the end
        epoch_len: 1 << 30,
    };
    let root0 = MerkleTree::with_order(config.order).root_digest();
    let server = NetServer::spawn_with(
        Box::new(HonestServer::new(&config)),
        NetServerOptions::default(),
    );

    println!("== team repository over the threaded deployment ==\n");

    // Alice seeds the repository.
    let mut alice = NetSession(NetClient2::new(0, &root0, config, &server));
    {
        let mut cvs = Cvs::new(&mut alice, "alice");
        cvs.add(
            "src/main.c",
            "#include \"Common.h\"\nint main() { return 0; }\n",
            "initial import",
            1,
        )
        .unwrap();
        cvs.add("Common.h", "#pragma once\n", "initial import", 1)
            .unwrap();
        println!("alice imported src/main.c and Common.h");
    }

    // Bob and Carol check out concurrently (worker threads).
    let mut bob = NetSession(NetClient2::new(1, &root0, config, &server));
    let mut carol = NetSession(NetClient2::new(2, &root0, config, &server));

    let bob_wf = Cvs::new(&mut bob, "bob").checkout("Common.h").unwrap();
    let carol_wf = Cvs::new(&mut carol, "carol").checkout("Common.h").unwrap();
    println!(
        "bob and carol both checked out Common.h r{}",
        bob_wf.base_rev
    );

    // Bob commits first.
    {
        let mut wf = bob_wf;
        wf.lines.push("#define BOB 1".to_string());
        let rev = Cvs::new(&mut bob, "bob")
            .commit(&wf, "bob's feature", 2)
            .unwrap();
        println!("bob committed r{rev}");
    }

    // Carol's commit now conflicts — classic CVS.
    {
        let mut wf = carol_wf;
        wf.lines.push("#define CAROL 1".to_string());
        let mut cvs = Cvs::new(&mut carol, "carol");
        match cvs.commit(&wf, "carol's feature", 3) {
            Err(CvsError::Conflict { head, base, .. }) => {
                println!(
                    "carol's commit CONFLICTS (head r{head}, hers based on r{base}) — updating"
                );
                let mut fresh = cvs.checkout("Common.h").unwrap();
                fresh.lines.push("#define CAROL 1".to_string());
                let rev = cvs.commit(&fresh, "carol's feature (rebased)", 4).unwrap();
                println!("carol committed r{rev} after update");
            }
            other => panic!("expected a conflict, got {other:?}"),
        }
    }

    // Annotate shows who wrote each line.
    {
        let mut cvs = Cvs::new(&mut alice, "alice");
        println!("\ncvs annotate Common.h:");
        for (rev, line) in cvs.annotate("Common.h").unwrap() {
            let meta = cvs.log("Common.h").unwrap()[rev as usize - 1].1.clone();
            println!("  r{rev} ({:>5}): {line}", meta.author);
        }
    }

    // Out-of-band sync-up: all three users cross-check their accumulators.
    let shares: Vec<SyncShare> = vec![
        alice.0.sync_share(),
        bob.0.sync_share(),
        carol.0.sync_share(),
    ];
    let ok = alice.0.sync_succeeds(&shares)
        || bob.0.sync_succeeds(&shares)
        || carol.0.sync_succeeds(&shares);
    println!(
        "\nbroadcast sync-up over {} total ops: {}",
        shares.iter().map(|s| s.lctr).sum::<u64>(),
        if ok {
            "consistent — the server performed exactly our operations"
        } else {
            "FAILED"
        }
    );
    assert!(ok);
    server.shutdown();
}
