//! A `Link` remembers the plans of its last few geometries, so a plan of
//! a remembered geometry reuses the rays and prices of earlier plans.
//! Every plan must still read the same bits as a plan built cold, on a
//! link that remembers nothing: after a device turns away and back, for
//! devices that are alike but not the same, for a clone that moved, and
//! when many threads share one link.

use std::sync::Barrier;
use talon_channel::{Device, Environment, Link, Orientation};

// `Link` is shared between threads by reference.
const _: fn() = || {
    fn check<T: Send + Sync>() {}
    check::<Link>();
};

/// Bit patterns of the true SNR of every sector of `tx`'s sweep, priced
/// through `link`'s plan from `tx` to `rx`.
fn snr_bits(link: &Link, tx: &Device, rx: &Device) -> Vec<u64> {
    let plan = link.plan(tx, rx);
    tx.codebook
        .sweep_order()
        .iter()
        .map(|&s| plan.true_snr_db(s).to_bits())
        .collect()
}

/// The same, on a clone of `link`, which remembers no geometry.
fn cold_snr_bits(link: &Link, tx: &Device, rx: &Device) -> Vec<u64> {
    snr_bits(&link.clone(), tx, rx)
}

#[test]
fn turning_away_and_back_reads_the_cold_bits_at_every_orientation() {
    let link = Link::new(Environment::lab());
    let mut tx = Device::talon(1);
    let rx = Device::talon(2);
    let orientations = [
        Orientation::NEUTRAL,
        Orientation::new(40.0, 0.0),
        Orientation::NEUTRAL,
        Orientation::new(40.0, 0.0),
        Orientation::new(-25.0, 10.0),
        Orientation::NEUTRAL,
    ];
    for (k, o) in orientations.into_iter().enumerate() {
        tx.orientation = o;
        assert_eq!(
            snr_bits(&link, &tx, &rx),
            cold_snr_bits(&link, &tx, &rx),
            "step {k} at {o:?}"
        );
    }
}

#[test]
fn no_device_receives_another_geometrys_plan() {
    let link = Link::new(Environment::conference_room());
    let rx = Device::talon(9);
    // Each device lives in the same stack slot as the one before, so a
    // memo keyed on addresses would hand the next one a stale plan.
    for seed in [3, 4, 3, 4] {
        let tx = Device::talon(seed);
        assert_eq!(
            snr_bits(&link, &tx, &rx),
            cold_snr_bits(&link, &tx, &rx),
            "device {seed}"
        );
    }
    // Two devices built alike are two devices; a clone keeps its
    // original's identity, so only its new orientation tells them apart.
    let a = Device::talon(5);
    let b = Device::talon(5);
    let mut moved = a.clone();
    moved.orientation = Orientation::new(-30.0, 5.0);
    for (name, tx) in [("a", &a), ("b", &b), ("moved clone", &moved), ("a", &a)] {
        assert_eq!(
            snr_bits(&link, tx, &rx),
            cold_snr_bits(&link, tx, &rx),
            "{name}"
        );
        assert_eq!(
            snr_bits(&link, &rx, tx),
            cold_snr_bits(&link, &rx, tx),
            "{name} receiving"
        );
    }
}

/// Threads sharing one link in the concurrency test.
const THREADS: usize = 8;

#[test]
fn eight_threads_sharing_one_link_read_the_cold_bits() {
    let link = Link::new(Environment::lab());
    let rx = Device::talon(2);
    // Ten orientations, both directions: more geometries than the memo
    // holds, so threads race on lookups, inserts and evictions.
    let devices: Vec<Device> = (0..10)
        .map(|i| {
            let mut d = Device::talon(1);
            d.orientation = Orientation::new(-45.0 + 10.0 * f64::from(i), 0.0);
            d
        })
        .collect();
    let pairs: Vec<(&Device, &Device)> =
        devices.iter().flat_map(|d| [(d, &rx), (&rx, d)]).collect();
    let cold: Vec<Vec<u64>> = pairs
        .iter()
        .map(|&(tx, rx)| cold_snr_bits(&link, tx, rx))
        .collect();

    let start = Barrier::new(THREADS);
    let shared: Vec<Vec<Vec<u64>>> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..THREADS)
            .map(|t| {
                let (link, pairs, start) = (&link, &pairs, &start);
                scope.spawn(move || {
                    start.wait();
                    // Each thread walks the geometries from its own
                    // offset, twice, and prices each sweep in its own
                    // rotation of the sector order.
                    let mut out = vec![Vec::new(); pairs.len()];
                    for round in 0..2 {
                        for k in 0..pairs.len() {
                            let i = (k + t * 3 + round) % pairs.len();
                            let (tx, rx) = pairs[i];
                            let plan = link.plan(tx, rx);
                            let order = tx.codebook.sweep_order();
                            let mut bits = vec![0u64; order.len()];
                            for j in 0..order.len() {
                                let j = (j + t * 5) % order.len();
                                bits[j] = plan.true_snr_db(order[j]).to_bits();
                            }
                            out[i] = bits;
                        }
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("pricing thread panicked"))
            .collect()
    });
    for (t, out) in shared.iter().enumerate() {
        assert_eq!(out, &cold, "thread {t}");
    }
}
