//! Firmware integration: the paper's §3 system, end to end.
//!
//! This example reproduces the deployment story of the paper: a Talon
//! router whose QCA9500 firmware has been Nexmon-patched so that (a) every
//! received SSW probe's SNR/RSSI lands in a ring buffer readable from user
//! space and (b) a WMI command overrides the sector written into SSW
//! feedback fields. A user-space agent thread reads the measurements, runs
//! the compressive selection, and arms the override — while the MAC keeps
//! running sector sweeps.
//!
//! ```text
//! cargo run --release --example firmware_integration
//! ```

use css::selection::{CompressiveSelection, CssConfig};
use geom::rng::sub_rng;
use mac80211ad::sls::{MaxSnrPolicy, SlsRunner};
use std::sync::Arc;
use talon_channel::{Device, Environment, Link, Orientation, SweepReading};
use wil6210::{Qca9500Firmware, Wil6210Driver, WmiCommand, WmiReply};

fn main() {
    let seed = 7;

    // --- Flash the patched firmware (the paper's §3.2 jailbreak) --------
    let firmware = Arc::new(Qca9500Firmware::stock());
    println!(
        "stock firmware: export patch active = {}",
        firmware.export_patch_active()
    );
    firmware
        .flash_patches()
        .expect("patching via high-address mappings succeeds");
    println!(
        "patched       : export patch active = {}, override patch active = {}",
        firmware.export_patch_active(),
        firmware.override_patch_active()
    );
    let driver = Wil6210Driver::new(Arc::clone(&firmware));
    if let Ok(WmiReply::FirmwareVersion(v)) = driver.wmi(&WmiCommand::GetFirmwareVersion) {
        println!("firmware version: {v} (the paper's Acer TravelMate build)");
    }

    // --- Physical setup -------------------------------------------------
    let mut dut = Device::talon(seed);
    let peer = Device::talon(seed + 1);
    let chamber_link = Link::new(Environment::anechoic(3.0));
    let mut campaign = chamber::Campaign::new(chamber::CampaignConfig::coarse(), seed);
    let mut rng = sub_rng(seed, "fw-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &chamber_link, &mut dut, &peer);
    dut.orientation = Orientation::new(35.0, 0.0);
    let link = Link::new(Environment::lab());

    // --- User-space agent: reads the ring buffer, computes CSS, arms the
    // override via WMI (the paper's Fig. 2 white boxes, driven from user
    // space exactly like their Python-over-ssh experiment control).
    let mut agent_css = CompressiveSelection::new(patterns, CssConfig::paper_default(), seed);

    // The peer sweeps; the DUT's firmware is the responder-side policy.
    let runner = SlsRunner::new(&link, &peer, &dut);
    let mut rng = sub_rng(seed, "fw-sls");

    println!("\nsweep 1: stock firmware path (argmax in the firmware)");
    let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut &*firmware);
    let stock_choice = out.initiator_tx_sector.expect("firmware selected");
    println!("  firmware fed back sector {stock_choice} for the peer");

    // After the sweep the agent drains the ring buffer and computes the
    // compressive selection from the exported measurements.
    let exported = driver.read_sweep_info();
    println!("  ring buffer exported {} measurements", exported.len());
    let readings: Vec<SweepReading> = exported
        .iter()
        .map(|e| SweepReading {
            sector: e.sector,
            measurement: Some(talon_channel::Measurement {
                snr_db: e.snr_db,
                rssi_dbm: e.rssi_dbm,
            }),
        })
        .collect();
    let css_choice = agent_css
        .select_from_readings(&readings)
        .expect("agent computes a selection");
    println!("  user-space CSS would select sector {css_choice}");

    // Arm the override: from now on the firmware feeds back the agent's
    // sector, not its own argmax.
    driver
        .wmi(&WmiCommand::SetSectorOverride(css_choice))
        .expect("override accepted");
    // And restrict the DUT's own transmit sweep to a compressive subset.
    let probes = agent_css.draw_probes();
    driver
        .wmi(&WmiCommand::SetProbeSectors(probes.clone()))
        .expect("probe subset accepted");
    println!(
        "\nsweep 2: override armed (sector {css_choice}), probing {} sectors",
        probes.len()
    );
    let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut &*firmware);
    println!(
        "  firmware fed back sector {} (the override), own sweep had {} probes",
        out.initiator_tx_sector.expect("override delivered"),
        out.rss_readings.len()
    );
    assert_eq!(out.initiator_tx_sector, Some(css_choice));
    assert_eq!(out.rss_readings.len(), probes.len());

    // Disarm and verify the stock path returns.
    driver
        .wmi(&WmiCommand::ClearSectorOverride)
        .expect("clear accepted");
    driver
        .wmi(&WmiCommand::ClearProbeSectors)
        .expect("clear accepted");
    let out = runner.run(&mut rng, &mut MaxSnrPolicy, &mut &*firmware);
    println!(
        "\nsweep 3: override cleared — firmware argmax again (sector {}, {} probes)",
        out.initiator_tx_sector.expect("stock path"),
        out.rss_readings.len()
    );
}
