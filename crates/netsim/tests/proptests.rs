//! Property-based tests for the training policies.

use geom::rng::sub_rng;
use netsim::policy::TrainingPolicy;
use proptest::prelude::*;
use std::sync::OnceLock;

/// One shared coarse pattern store (campaigns are the expensive part).
fn patterns() -> &'static chamber::SectorPatterns {
    static STORE: OnceLock<chamber::SectorPatterns> = OnceLock::new();
    STORE.get_or_init(|| {
        use talon_channel::{Device, Environment, Link};
        let link = Link::new(Environment::anechoic(3.0));
        let mut dut = Device::talon(7000);
        let peer = Device::talon(7001);
        let mut campaign = chamber::Campaign::new(chamber::CampaignConfig::coarse(), 7000);
        let mut rng = sub_rng(7000, "netsim-prop-campaign");
        campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &peer)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn css_airtime_is_always_cheaper(m in 2usize..34, seed in 0u64..8) {
        let css = TrainingPolicy::css(patterns().clone(), m, seed);
        let ssw = TrainingPolicy::ssw();
        prop_assert!(css.training_time(34) < ssw.training_time(34));
        prop_assert_eq!(css.probes(34), m);
    }
}
