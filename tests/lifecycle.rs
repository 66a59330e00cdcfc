//! Full link lifecycle across every substrate: beacon discovery → A-BFT
//! association → periodic CSS beam maintenance.

use css::selection::{CompressiveSelection, CssConfig};
use geom::rng::sub_rng;
use mac80211ad::addr::MacAddr;
use mac80211ad::assoc::associate;
use talon_channel::{Device, Environment, Link, Orientation};

#[test]
fn bring_up_then_css_maintenance() {
    let seed = 2000;
    // --- Chamber: measure the AP's patterns once (it is the transmitter
    // whose sector the client maintains).
    let chamber_link = Link::new(Environment::anechoic(3.0));
    let mut ap = Device::talon(seed);
    let sta = Device::talon(seed + 1);
    let cfg = chamber::CampaignConfig {
        grid: geom::sphere::SphericalGrid::new(
            geom::sphere::GridSpec::new(-90.0, 90.0, 4.5),
            geom::sphere::GridSpec::new(0.0, 30.0, 7.5),
        ),
        sweeps_per_position: 6,
        ..chamber::CampaignConfig::coarse()
    };
    let mut campaign = chamber::Campaign::new(cfg, seed);
    let mut rng = sub_rng(seed, "lifecycle-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &chamber_link, &mut ap, &sta);
    ap.orientation = Orientation::NEUTRAL;

    // --- Phase 1: bring-up in the lab (BTI + A-BFT).
    let link = Link::new(Environment::lab());
    let outcome = associate(
        &mut rng,
        &link,
        &ap,
        MacAddr::device(1),
        &sta,
        MacAddr::device(2),
        2,
    )
    .expect("association succeeds");
    let rxw = sta.codebook.rx_sector().weights.clone();
    let initial_snr = link.true_snr_db(&ap, outcome.ap_tx_sector, &sta, &rxw);
    assert!(
        initial_snr > 3.0,
        "initial beamforming works: {initial_snr:.1} dB"
    );

    // --- Phase 2: the AP rotates (someone moves the router); periodic CSS
    // maintenance keeps the sector fresh with 14-probe sweeps.
    let mut css = CompressiveSelection::new(patterns.clone(), CssConfig::paper_default(), seed);
    let mut ap_moving = ap.clone();
    let mut maintained = outcome.ap_tx_sector;
    for step in 1..=6 {
        ap_moving.orientation = Orientation::new(-5.0 * step as f64, 0.0);
        let probes = css.draw_probes();
        let readings = link.sweep(&mut rng, &ap_moving, &probes, &sta);
        if let Some(sel) = css.select_from_readings(&readings) {
            maintained = sel;
        }
    }
    let final_snr = link.true_snr_db(&ap_moving, maintained, &sta, &rxw);
    let best = ap_moving
        .codebook
        .sweep_order()
        .into_iter()
        .map(|s| link.true_snr_db(&ap_moving, s, &sta, &rxw))
        .fold(f64::NEG_INFINITY, f64::max);
    assert!(
        best - final_snr < 3.0,
        "maintenance keeps the sector near-optimal after 30° of rotation: {final_snr:.1} vs best {best:.1}"
    );
}
