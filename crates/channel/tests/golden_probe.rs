//! Golden values for the probe path.
//!
//! Pins the exact `f64` bit patterns of the received power and true SNR
//! of all 34 sweep sectors, in the three environments, at three DUT
//! orientations (one yawed past ±120°, so the chassis shadow term is
//! non-zero on the line of sight), plus a digest of one sweep's readings
//! under a fixed RNG. Any change in rounding (the order of the per-element
//! products, the dB sums, the floors) or in the RNG draw order fails here.

use geom::rng::sub_rng;
use talon_array::{Codebook, PhasedArray};
use talon_channel::{Device, Environment, Link, Orientation, SweepReading};

/// (environment, DUT orientation) of each pinned geometry.
fn geometries() -> Vec<(Environment, Orientation)> {
    let envs = [
        Environment::anechoic(3.0),
        Environment::lab(),
        Environment::conference_room(),
    ];
    let orientations = [
        Orientation::NEUTRAL,
        Orientation::new(-25.0, 10.0),
        Orientation::new(150.0, -5.0),
    ];
    envs.iter()
        .flat_map(|e| orientations.iter().map(move |&o| (e.clone(), o)))
        .collect()
}

/// The DUT (transmitter, at `orientation`) and the fixed receiver.
fn devices(orientation: Orientation) -> (Device, Device) {
    let mut dut = Device::talon(5);
    dut.orientation = orientation;
    (dut, Device::talon(6))
}

/// FNV-1a over the bit patterns of a sweep's readings (a missed frame
/// hashes as a marker value).
fn digest(readings: &[SweepReading]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in readings {
        eat(u64::from(r.sector.raw()));
        match r.measurement {
            Some(m) => {
                eat(m.snr_db.to_bits());
                eat(m.rssi_dbm.to_bits());
            }
            None => eat(u64::MAX),
        }
    }
    h
}

#[test]
fn the_yawed_geometry_is_shadowed() {
    for (env, o) in geometries() {
        let (dut, _) = devices(o);
        let los = dut.orientation.world_to_device(&env.los().depart_world);
        let shadow = dut.array.imperfections.shadow_db(&los);
        assert_eq!(shadow > 0.0, o.yaw_deg.abs() > 120.0, "{} {o:?}", env.name);
    }
}

#[test]
fn received_power_and_true_snr_match_the_pinned_bits() {
    for (gi, (env, o)) in geometries().into_iter().enumerate() {
        let link = Link::new(env);
        let (dut, fixed) = devices(o);
        let rxw = fixed.codebook.rx_sector().weights.clone();
        let order = dut.codebook.sweep_order();
        // One plan serves every sector of the geometry.
        let plan = link.plan(&dut, &fixed);
        assert_eq!(order.len(), GOLDEN[gi].len());
        for (&s, &(id, power, snr)) in order.iter().zip(GOLDEN[gi].iter()) {
            assert_eq!(s.raw(), id, "geometry {gi}: sweep order");
            let w = dut.sector_weights(s);
            let p = link.rx_power_dbm(&dut, w, &fixed, &rxw);
            assert_eq!(p.to_bits(), power, "geometry {gi} sector {s}: power {p}");
            assert_eq!(
                plan.rx_power_dbm(w).to_bits(),
                power,
                "geometry {gi} sector {s}"
            );
            let t = link.true_snr_db(&dut, s, &fixed, &rxw);
            assert_eq!(t.to_bits(), snr, "geometry {gi} sector {s}: SNR {t}");
            assert_eq!(
                plan.true_snr_db(s).to_bits(),
                snr,
                "geometry {gi} sector {s}"
            );
        }
    }
}

#[test]
fn sweep_readings_match_the_pinned_digest() {
    for (gi, (env, o)) in geometries().into_iter().enumerate() {
        let link = Link::new(env);
        let (dut, fixed) = devices(o);
        let order = dut.codebook.sweep_order();
        let mut rng = sub_rng(gi as u64, "golden-probe");
        let sweep = link.sweep(&mut rng, &dut, &order, &fixed);
        assert_eq!(digest(&sweep), SWEEP_DIGESTS[gi], "geometry {gi}");
    }
}

#[test]
fn sweep_equals_sequential_probes() {
    for (gi, (env, o)) in geometries().into_iter().enumerate() {
        let link = Link::new(env);
        let (dut, fixed) = devices(o);
        let order = dut.codebook.sweep_order();
        let mut rng = sub_rng(gi as u64, "golden-probe-pair");
        let swept = link.sweep(&mut rng, &dut, &order, &fixed);
        let mut rng = sub_rng(gi as u64, "golden-probe-pair");
        let probed: Vec<SweepReading> = order
            .iter()
            .map(|&s| SweepReading {
                sector: s,
                measurement: link.probe(&mut rng, &dut, s, &fixed),
            })
            .collect();
        assert_eq!(digest(&swept), digest(&probed), "geometry {gi}");
        assert_eq!(swept, probed, "geometry {gi}");
    }
}

/// `(sector, rx_power_dbm bits, true_snr_db bits)` per geometry, in
/// [`geometries`] order and sweep order.
const GOLDEN: [[(u8, u64, u64); 34]; 9] = [
    [
        (1, 0xc050b2ce73ab5634, 0x4012d318c54a9cc0),
        (2, 0xc053b7513066fd45, 0xc01d7513066fd450),
        (3, 0xc04c2b4deebf54bc, 0x402e52c84502ad10),
        (4, 0xc04ebc045077c8a8, 0x40240feebe20dd60),
        (5, 0xc0501a0d00cb841d, 0x401c5f2ff347be30),
        (6, 0xc04c2b4deebf54bc, 0x402e52c84502ad10),
        (7, 0xc0501567e1570085, 0x401ca981ea8ff7b0),
        (8, 0xc051153e62e5fdf0, 0x40095833a3404200),
        (9, 0xc04cdd53df484e7a, 0x402b8ab082dec618),
        (10, 0xc052b345ecdbfef9, 0xc00a68bd9b7fdf20),
        (11, 0xc0510cb17b3a1934, 0x400a69d098bcd980),
        (12, 0xc04cdd53df484e7a, 0x402b8ab082dec618),
        (13, 0xc04ea269c5833e1a, 0x40247658e9f30798),
        (14, 0xc04f3b15cdf31724, 0x402213a8c833a370),
        (15, 0xc04992c8f00b6128, 0x40345a6e1fe93db0),
        (16, 0xc04a8349bc171226, 0x4032796c87d1dbb4),
        (17, 0xc04f9eabcb5dafec, 0x40208550d2894050),
        (18, 0xc04992c8f00b6128, 0x40345a6e1fe93db0),
        (19, 0xc04bb12185c847fe, 0x40301dbcf46f7004),
        (20, 0xc05077cb277bad9e, 0x4016834d88452620),
        (21, 0xc04bbb1d37886994, 0x403009c590ef2cd8),
        (22, 0xc04ee618b320333f, 0x4023679d337f3304),
        (23, 0xc054b4a90a5219ba, 0xc026a5485290cdd0),
        (24, 0xc04d724e7ad4a195, 0x402936c614ad79ac),
        (25, 0xc04b6b34ca8ac55d, 0x4030a9966aea7546),
        (26, 0xc04b6a814b426d8c, 0x4030aafd697b24e8),
        (27, 0xc050683b5df6cff6, 0x40177c4a209300a0),
        (28, 0xc04de80f5ad1724c, 0x40275fc294ba36d0),
        (29, 0xc0519329b2cd44a2, 0x3ff335934caed780),
        (30, 0xc04f07db0a204190, 0x4022e093d77ef9c0),
        (31, 0xc0500aadea50a96e, 0x401d55215af56920),
        (61, 0xc04f60615b7c5a42, 0x40217e7a920e96f8),
        (62, 0xc04bdba4a74d16ce, 0x402f916d62cba4c8),
        (63, 0xc047e5bdf4cb35fc, 0x4037b48416699408),
    ],
    [
        (1, 0xc0506d0a82edc734, 0x40172f57d1238cc0),
        (2, 0xc04f1f293ea3d600, 0x4022835b0570a800),
        (3, 0xc050eb2f1b92910e, 0x400e9a1c8dadde40),
        (4, 0xc05118ff64eec31f, 0x4008e01362279c20),
        (5, 0xc0536b60c4b089c5, 0xc018b60c4b089c50),
        (6, 0xc050eb2f1b92910e, 0x400e9a1c8dadde40),
        (7, 0xc04ff24a61560634, 0x401e6dacf54fce60),
        (8, 0xc051e67bd47e06ce, 0xbfb9ef51f81b3800),
        (9, 0xc051e830aaf7014e, 0xbfc06155ee029c00),
        (10, 0xc0515770c2ec19e0, 0x400111e7a27cc400),
        (11, 0xc04faa1546876e82, 0x402057aae5e245f8),
        (12, 0xc051e830aaf7014e, 0xbfc06155ee029c00),
        (13, 0xc04e46dd87b38538, 0x4025e489e131eb20),
        (14, 0xc051f29015ef7c71, 0xbfd29015ef7c7100),
        (15, 0xc057206fd3ee5c1a, 0xc03501bf4fb97068),
        (16, 0xc050cfbfe59d42a2, 0x40110401a62bd5e0),
        (17, 0xc0512361a57f83ee, 0x400793cb500f8240),
        (18, 0xc057206fd3ee5c1a, 0xc03501bf4fb97068),
        (19, 0xc0511b099338055f, 0x40089ecd98ff5420),
        (20, 0xc0503700e7ccba9a, 0x401a8ff183345660),
        (21, 0xc04c08f5e7e6a42c, 0x402edc2860656f50),
        (22, 0xc051164cac4d0762, 0x4009366a765f13c0),
        (23, 0xc0500105c467e3b9, 0x401defa3b981c470),
        (24, 0xc04caca076cc8bf3, 0x402c4d7e24cdd034),
        (25, 0xc0536be18974d881, 0xc018be18974d8810),
        (26, 0xc04cf18197262036, 0x402b39f9a3677f28),
        (27, 0xc0507bd4707e6ae2, 0x401642b8f81951e0),
        (28, 0xc0508aa8379dddca, 0x4015557c86222360),
        (29, 0xc05107a310cd28f3, 0x400b0b9de65ae1a0),
        (30, 0xc04e99ba06cea23a, 0x40249917e4c57718),
        (31, 0xc05342851dfb9ef3, 0xc0162851dfb9ef30),
        (61, 0xc05055750f72c5aa, 0x4018a8af08d3a560),
        (62, 0xc04fa916cae49f46, 0x40205ba4d46d82e8),
        (63, 0xc04e920291aee2ac, 0x4024b7f5b9447550),
    ],
    [
        (1, 0xc05454cc98dd3add, 0xc023a664c6e9d6e8),
        (2, 0xc054c0cdf3af479f, 0xc027066f9d7a3cf8),
        (3, 0xc05299facedd3528, 0xc0073f59dba6a500),
        (4, 0xc053523ae8269177, 0xc01723ae82691770),
        (5, 0xc054535e341a9094, 0xc0239af1a0d484a0),
        (6, 0xc05299facedd3528, 0xc0073f59dba6a500),
        (7, 0xc051f0a703931af1, 0xbfd0a703931af100),
        (8, 0xc0529d1550947715, 0xc007a2aa128ee2a0),
        (9, 0xc0520f0ffb6afa35, 0xbfe787fdb57d1a80),
        (10, 0xc051dbde1c7193cb, 0x3fb0878e39b0d400),
        (11, 0xc0528d5a94a321db, 0xc005ab5294643b60),
        (12, 0xc0520f0ffb6afa35, 0xbfe787fdb57d1a80),
        (13, 0xc05202f107f7559c, 0xbfe17883fbaace00),
        (14, 0xc05526ea1dc92bae, 0xc02a3750ee495d70),
        (15, 0xc0554a5c8b0ec506, 0xc02b52e458762830),
        (16, 0xc0556f2bf2bea6bc, 0xc02c795f95f535e0),
        (17, 0xc05762992af15c2c, 0xc0360a64abc570b0),
        (18, 0xc0554a5c8b0ec506, 0xc02b52e458762830),
        (19, 0xc055aa6814d3bee0, 0xc02e5340a69df700),
        (20, 0xc053c642fb7f9c3b, 0xc01e642fb7f9c3b0),
        (21, 0xc0559491794f5e36, 0xc02da48bca7af1b0),
        (22, 0xc0576de38fb95d31, 0xc036378e3ee574c4),
        (23, 0xc054f27e3941f136, 0xc02893f1ca0f89b0),
        (24, 0xc056b8b13e78cf31, 0xc03362c4f9e33cc4),
        (25, 0xc05493bb62b3590a, 0xc0259ddb159ac850),
        (26, 0xc052710887cf35a1, 0xc0022110f9e6b420),
        (27, 0xc0541cab20854bc2, 0xc021e559042a5e10),
        (28, 0xc05434d239e200ac, 0xc022a691cf100560),
        (29, 0xc0551f0e4a462791, 0xc029f87252313c88),
        (30, 0xc055e572e92bc9a4, 0xc03015cba4af2690),
        (31, 0xc0546f9e4c5b51b7, 0xc0247cf262da8db8),
        (61, 0xc055125002e88046, 0xc029928017440230),
        (62, 0xc0551452472bbe13, 0xc029a292395df098),
        (63, 0xc0561bb9ae3d23a7, 0xc030eee6b8f48e9c),
    ],
    [
        (1, 0xc050aa0c9c79d84b, 0x40135f3638627b50),
        (2, 0xc052d930c356936e, 0xc00f26186ad26dc0),
        (3, 0xc04c2ab43d4d61e4, 0x402e552f0aca7870),
        (4, 0xc04eb45617257341, 0x40242ea7a36a32fc),
        (5, 0xc0501793581f7ad1, 0x401c86ca7e0852f0),
        (6, 0xc04c2ab43d4d61e4, 0x402e552f0aca7870),
        (7, 0xc05000965741156e, 0x401df69a8beea920),
        (8, 0xc05107eed58483a9, 0x400b02254f6f8ae0),
        (9, 0xc04cd9d652cf38b1, 0x402b98a6b4c31d3c),
        (10, 0xc0524973ce0121c1, 0xbffa5cf380487040),
        (11, 0xc050e6b9aec50244, 0x400f28ca275fb780),
        (12, 0xc04cd9d652cf38b1, 0x402b98a6b4c31d3c),
        (13, 0xc04e7bd40015ef79, 0x402510afffa8421c),
        (14, 0xc04f0ee5561f4780, 0x4022c46aa782e200),
        (15, 0xc049921e35262849, 0x40345bc395b3af6e),
        (16, 0xc04a817a8577bb92, 0x40327d0af51088dc),
        (17, 0xc04f67767894fcea, 0x402162261dac0c58),
        (18, 0xc049921e35262849, 0x40345bc395b3af6e),
        (19, 0xc04bafebe92b78d8, 0x403020282da90e50),
        (20, 0xc0504bb5425d08a2, 0x401944abda2f75e0),
        (21, 0xc04bb8567e784cbf, 0x40300f53030f6682),
        (22, 0xc04eddf8321a98e0, 0x4023881f37959c80),
        (23, 0xc053437e0225c3a2, 0xc01637e0225c3a20),
        (24, 0xc04d39914aed9af5, 0x402a19bad449942c),
        (25, 0xc04b68c9ea499f8d, 0x4030ae6c2b6cc0e6),
        (26, 0xc04b5f96c4f1e736, 0x4030c0d2761c3194),
        (27, 0xc0503d98f7a648a4, 0x401a2670859b75c0),
        (28, 0xc04dbb1a5d120eb7, 0x402813968bb7c524),
        (29, 0xc0516acf8169b44c, 0x3ffd4c1fa592ed00),
        (30, 0xc04eb78a6c2a3ee7, 0x402421d64f570464),
        (31, 0xc04fd62a279db1f6, 0x401f4eaec3127050),
        (61, 0xc04f5b4a243f2567, 0x402192d76f036a64),
        (62, 0xc04bd8c62ae66ffa, 0x402f9ce754664018),
        (63, 0xc047e5856a9f05a9, 0x4037b4f52ac1f4ae),
    ],
    [
        (1, 0xc05060fdcecfe692, 0x4017f023130196e0),
        (2, 0xc04f157c8b93f5cb, 0x4022aa0dd1b028d4),
        (3, 0xc050da4cfdcfdd10, 0x40105b3023022f00),
        (4, 0xc05111b89084209d, 0x4009c8edef7bec60),
        (5, 0xc052f563c4c246a2, 0xc011563c4c246a20),
        (6, 0xc050da4cfdcfdd10, 0x40105b3023022f00),
        (7, 0xc04feac778b25ad9, 0x401ea9c43a6d2938),
        (8, 0xc051dae91c7ac5ca, 0x3fb45b8e14e8d800),
        (9, 0xc0518fdcc432e394, 0x3ff408cef3471b00),
        (10, 0xc051333835bb16b0, 0x400598f9489d2a00),
        (11, 0xc04fa2e4f28c1748, 0x4020746c35cfa2e0),
        (12, 0xc0518fdcc432e394, 0x3ff408cef3471b00),
        (13, 0xc04e40a7f50fca5d, 0x4025fd602bc0d68c),
        (14, 0xc051e9803cc4977d, 0xbfc30079892efa00),
        (15, 0xc0545a6db409b9c9, 0xc023d36da04dce48),
        (16, 0xc050b75e453fbbf4, 0x40128a1bac0440c0),
        (17, 0xc051051e11311bf0, 0x400b5c3dd9dc8200),
        (18, 0xc0545a6db409b9c9, 0xc023d36da04dce48),
        (19, 0xc050df830d0c6b64, 0x401007cf2f3949c0),
        (20, 0xc04ffc819d28b311, 0x401e1bf316ba6778),
        (21, 0xc04c02d0decaef0f, 0x402ef4bc84d443c4),
        (22, 0xc050ef434d5a74f4, 0x400e179654b16180),
        (23, 0xc04f8941d6f4c770, 0x4020daf8a42ce240),
        (24, 0xc04ca2e14bdf613e, 0x402c747ad0827b08),
        (25, 0xc05239905701ee2b, 0xbff66415c07b8ac0),
        (26, 0xc04ce5d123185825, 0x402b68bb739e9f6c),
        (27, 0xc0506cf0bad0ae7e, 0x401730f452f51820),
        (28, 0xc0506a9c82d5b2b4, 0x40175637d2a4d4c0),
        (29, 0xc050d46bfda11339, 0x4010b94025eecc70),
        (30, 0xc04e6c28b68be669, 0x40254f5d25d0665c),
        (31, 0xc052c08e1625f316, 0xc00c11c2c4be62c0),
        (61, 0xc050234c64c500a1, 0x401bcb39b3aff5f0),
        (62, 0xc04f949233e53305, 0x4020adb7306b33ec),
        (63, 0xc04e8cc01f983f26, 0x4024ccff819f0368),
    ],
    [
        (1, 0xc0526b623500db5a, 0xc0016c46a01b6b40),
        (2, 0xc0536cb464ca32e7, 0xc018cb464ca32e70),
        (3, 0xc051ecb558aef8f6, 0xbfc96ab15df1ec00),
        (4, 0xc05233d56f8c12ec, 0xbff4f55be304bb00),
        (5, 0xc0541cbad7631e64, 0xc021e5d6bb18f320),
        (6, 0xc051ecb558aef8f6, 0xbfc96ab15df1ec00),
        (7, 0xc051bc139c9b1408, 0x3fe1f631b275fc00),
        (8, 0xc0524ca7cff83299, 0xbffb29f3fe0ca640),
        (9, 0xc051f8a2bf9e8074, 0xbfd8a2bf9e807400),
        (10, 0xc051d79c25f1b7e8, 0x3fc0c7b41c903000),
        (11, 0xc0527fd9e82019a5, 0xc003fb3d040334a0),
        (12, 0xc051f8a2bf9e8074, 0xbfd8a2bf9e807400),
        (13, 0xc051efa5db33c5a4, 0xbfcf4bb6678b4800),
        (14, 0xc05448422e61bcbc, 0xc0234211730de5e0),
        (15, 0xc054df6b31ab3ab8, 0xc027fb598d59d5c0),
        (16, 0xc054a476374b7ce5, 0xc02623b1ba5be728),
        (17, 0xc055f605d654bc42, 0xc03058175952f108),
        (18, 0xc054df6b31ab3ab8, 0xc027fb598d59d5c0),
        (19, 0xc0552a498ba9f852, 0xc02a524c5d4fc290),
        (20, 0xc053be361617f828, 0xc01de361617f8280),
        (21, 0xc0532b9314410ad7, 0xc014b9314410ad70),
        (22, 0xc0540d89d0432a7f, 0xc0216c4e821953f8),
        (23, 0xc054d1fea503e312, 0xc0278ff5281f1890),
        (24, 0xc0542ba766ed30b8, 0xc0225d3b376985c0),
        (25, 0xc05490727dfa0e09, 0xc0258393efd07048),
        (26, 0xc051e7ea162ee9f3, 0xbfbfa858bba7cc00),
        (27, 0xc052c18d4e7b25ae, 0xc00c31a9cf64b5c0),
        (28, 0xc053d519d19ef2f3, 0xc01f519d19ef2f30),
        (29, 0xc054cdda9f1f08b0, 0xc0276ed4f8f84580),
        (30, 0xc0536df50e97abb0, 0xc018df50e97abb00),
        (31, 0xc0536c3a9137680b, 0xc018c3a9137680b0),
        (61, 0xc0532f8fba88f771, 0xc014f8fba88f7710),
        (62, 0xc05464c2334bc2a6, 0xc02426119a5e1530),
        (63, 0xc055ccbee0efc26b, 0xc02f65f7077e1358),
    ],
    [
        (1, 0xc0522a0cb8dbc9bf, 0xbff2832e36f26fc0),
        (2, 0xc0538bda9b33da61, 0xc01abda9b33da610),
        (3, 0xc04f1780fd691cbc, 0x4022a1fc0a5b8d10),
        (4, 0xc050cfef46ebcd30, 0x4011010b91432d00),
        (5, 0xc0517914dc876fe4, 0x3ff9bac8de240700),
        (6, 0xc04f1780fd691cbc, 0x4022a1fc0a5b8d10),
        (7, 0xc05126d4f5851758, 0x400725614f5d1500),
        (8, 0xc0521a2bd3400636, 0xbfed15e9a0031b00),
        (9, 0xc04f7abaf75ba671, 0x402115142291663c),
        (10, 0xc051f9f132d7ff3e, 0xbfd9f132d7ff3e00),
        (11, 0xc051e943a8874017, 0xbfc287510e802e00),
        (12, 0xc04f7abaf75ba671, 0x402115142291663c),
        (13, 0xc0509da9020fdb2f, 0x4014256fdf024d10),
        (14, 0xc0510e989b713a86, 0x400a2cec91d8af40),
        (15, 0xc04c93c9c73b80f0, 0x402cb0d8e311fc40),
        (16, 0xc04d88c190d18d9c, 0x4028dcf9bcb9c990),
        (17, 0xc0514177182178e2, 0x4003d11cfbd0e3c0),
        (18, 0xc04c93c9c73b80f0, 0x402cb0d8e311fc40),
        (19, 0xc04eb775b7a9139e, 0x40242229215bb188),
        (20, 0xc051b4504e569724, 0x3fe5d7d8d4b46e00),
        (21, 0xc04eb83ab00afb6a, 0x40241f153fd41258),
        (22, 0xc050e75a992b6d0a, 0x400f14acda925ec0),
        (23, 0xc05396a0eadc4381, 0xc01b6a0eadc43810),
        (24, 0xc05022bbce770708, 0x401bd443188f8f80),
        (25, 0xc04e6b1083ada9cb, 0x402553bdf14958d4),
        (26, 0xc04e4839bf51b992, 0x4025df1902b919b8),
        (27, 0xc051925453c4246c, 0x3ff36aeb0ef6e500),
        (28, 0xc0505bb7a4e7a18b, 0x40184485b185e750),
        (29, 0xc052b0f3d138c7c4, 0xc00a1e7a2718f880),
        (30, 0xc050da83c6e8ff30, 0x401057c391700d00),
        (31, 0xc0516cee970ffe94, 0x3ffcc45a3c005b00),
        (61, 0xc0512483f6c819c4, 0x40076f8126fcc780),
        (62, 0xc04ed6939fd4c97a, 0x4023a5b180acda18),
        (63, 0xc04ae8c84ce64213, 0x4031ae6f66337bda),
    ],
    [
        (1, 0xc051b7c375ffdfec, 0x3fe41e4500100a00),
        (2, 0xc05105cbfba4baf9, 0x400b46808b68a0e0),
        (3, 0xc051f8188b226bed, 0xbfd8188b226bed00),
        (4, 0xc0522c23bc1d64d2, 0xbff308ef07593480),
        (5, 0xc0546b85c42f422c, 0xc0245c2e217a1160),
        (6, 0xc051f8188b226bed, 0xbfd8188b226bed00),
        (7, 0xc05163f75d7b4999, 0x3fff0228a12d99c0),
        (8, 0xc0532c49ee41e4f0, 0xc014c49ee41e4f00),
        (9, 0xc052b88dee240d3b, 0xc00b11bdc481a760),
        (10, 0xc052caaaacc58ce8, 0xc00d555598b19d00),
        (11, 0xc0514623f18a20f8, 0x40033b81cebbe100),
        (12, 0xc052b88dee240d3b, 0xc00b11bdc481a760),
        (13, 0xc05096e744228643, 0x4014918bbdd79bd0),
        (14, 0xc052d7069cd46966, 0xc00ee0d39a8d2cc0),
        (15, 0xc051eba888782ef0, 0xbfc75110f05de000),
        (16, 0xc051b31749c2ab6f, 0x3fe6745b1eaa4880),
        (17, 0xc0525419e1b60e77, 0xbffd06786d839dc0),
        (18, 0xc051eba888782ef0, 0xbfc75110f05de000),
        (19, 0xc0523169fa1604f1, 0xbff45a7e85813c40),
        (20, 0xc0519f91ce9b83c1, 0x3ff01b8c591f0fc0),
        (21, 0xc04ef9a243c1a25e, 0x40231976f0f97688),
        (22, 0xc0524f7af76e1ef1, 0xbffbdebddb87bc40),
        (23, 0xc0515f8c2c7e4d9b, 0x40000e7a70364ca0),
        (24, 0xc04f972b6817558f, 0x4020a3525fa2a9c4),
        (25, 0xc052832fcabdfbbf, 0xc00465f957bf77e0),
        (26, 0xc04fd092ede3c300, 0x401f7b6890e1e800),
        (27, 0xc051b2d1404c0244, 0x3fe6975fd9fede00),
        (28, 0xc051aee1e68fb026, 0x3fe88f0cb827ed00),
        (29, 0xc05249a57807f0a1, 0xbffa695e01fc2840),
        (30, 0xc050a7299a7ae1da, 0x40138d665851e260),
        (31, 0xc053a4745a81444e, 0xc01c4745a81444e0),
        (61, 0xc0518ff43862e185, 0x3ff402f1e7479ec0),
        (62, 0xc050ff3fc3fa0d20, 0x400c180780be5c00),
        (63, 0xc0502a7ab6f9aa42, 0x401b585490655be0),
    ],
    [
        (1, 0xc0544856154edad1, 0xc02342b0aa76d688),
        (2, 0xc05529f78561673a, 0xc02a4fbc2b0b39d0),
        (3, 0xc05390094e365d26, 0xc01b0094e365d260),
        (4, 0xc053ee6133c9a93a, 0xc02073099e4d49d0),
        (5, 0xc055b5fb1645bbff, 0xc02eafd8b22ddff8),
        (6, 0xc05390094e365d26, 0xc01b0094e365d260),
        (7, 0xc05343a48d9ade1e, 0xc0163a48d9ade1e0),
        (8, 0xc053e138871c8ea2, 0xc02009c438e47510),
        (9, 0xc05383d8941f4c6c, 0xc01a3d8941f4c6c0),
        (10, 0xc05359cfd9c485e6, 0xc0179cfd9c485e60),
        (11, 0xc0540f2ae075e836, 0xc021795703af41b0),
        (12, 0xc05383d8941f4c6c, 0xc01a3d8941f4c6c0),
        (13, 0xc05379e0ade9f0fc, 0xc0199e0ade9f0fc0),
        (14, 0xc05608bd4ff2aebb, 0xc030a2f53fcabaec),
        (15, 0xc05671efc3e604ee, 0xc03247bf0f9813b8),
        (16, 0xc0562bc3aff3ee35, 0xc0312f0ebfcfb8d4),
        (17, 0xc057c8f84cdca1b4, 0xc037a3e1337286d0),
        (18, 0xc05671efc3e604ee, 0xc03247bf0f9813b8),
        (19, 0xc056c2e75939314e, 0xc0338b9d64e4c538),
        (20, 0xc0553d7678952646, 0xc02aebb3c4a93230),
        (21, 0xc0551a02e1164940, 0xc029d01708b24a00),
        (22, 0xc0558e07e385889c, 0xc02d703f1c2c44e0),
        (23, 0xc056596974e4677e, 0xc031e5a5d3919df8),
        (24, 0xc056809dfddf8c0e, 0xc0328277f77e3038),
        (25, 0xc05606e634bc8a08, 0xc0309b98d2f22820),
        (26, 0xc053917e4fc9d1d0, 0xc01b17e4fc9d1d00),
        (27, 0xc0544591e46df7e9, 0xc0232c8f236fbf48),
        (28, 0xc0559af2ff158df4, 0xc02dd797f8ac6fa0),
        (29, 0xc05683ad115db6d6, 0xc0328eb44576db58),
        (30, 0xc05589b2d6d15d06, 0xc02d4d96b68ae830),
        (31, 0xc055623afc02fe51, 0xc02c11d7e017f288),
        (61, 0xc055d018a5ebd677, 0xc02f80c52f5eb3b8),
        (62, 0xc0561c7bfbf1f776, 0xc030f1efefc7ddd8),
        (63, 0xc05735d08d22063d, 0xc0355742348818f4),
    ],
];

/// Digest of one full sweep per geometry, RNG `sub_rng(index, "golden-probe")`.
const SWEEP_DIGESTS: [u64; 9] = [
    0x235774c46aa2b8a2,
    0xf3692700dec85a0e,
    0x8f01f6e0aa84b692,
    0xaac34ac41bd19cc9,
    0x1dca3858f4d63ef1,
    0xd2c9ec00b58aa8b0,
    0xf17a58e48b5dce20,
    0x420c3274de8f590a,
    0xf9fed04041511456,
];

/// A Talon device with dead elements, and a pseudo-random-beam device
/// (every element switched on) on an array with dead elements: both
/// exercise the rule that an element contributes nothing when its weight
/// or its error factor is zero.
fn skip_rule_devices() -> [Device; 2] {
    let array = PhasedArray::talon(RANDOM_BEAM_SEED);
    let codebook = Codebook::pseudo_random(&array, 34, RANDOM_BEAM_SEED);
    [
        Device::talon(DEAD_ELEMENT_SEED),
        Device::new(array, codebook),
    ]
}

/// Talon device seed with dead elements 24 and 29.
const DEAD_ELEMENT_SEED: u64 = 11;
/// Array seed of the pseudo-random-beam device (dead elements 11 and 15).
const RANDOM_BEAM_SEED: u64 = 12;

#[test]
fn skip_rule_devices_have_dead_elements() {
    for dut in skip_rule_devices() {
        let dead = &dut.array.imperfections.dead;
        assert!(dead.iter().any(|&d| d), "{dead:?}");
        // Some probed sector switches a dead element on.
        assert!(dut.codebook.sweep_order().iter().any(|&s| {
            let w = dut.sector_weights(s);
            (0..w.len()).any(|i| dead[i] && w.get(i).abs2() > 0.0)
        }));
    }
}

#[test]
fn skip_rule_devices_match_the_pinned_bits() {
    let orientations = [Orientation::NEUTRAL, Orientation::new(150.0, -5.0)];
    let fixed = Device::talon(6);
    let rxw = fixed.codebook.rx_sector().weights.clone();
    let link = Link::new(Environment::lab());
    let mut gi = 0;
    for mut dut in skip_rule_devices() {
        for o in orientations {
            dut.orientation = o;
            let order = dut.codebook.sweep_order();
            let plan = link.plan(&dut, &fixed);
            assert_eq!(order.len(), SKIP_RULE_GOLDEN[gi].len());
            for (&s, &(id, power, snr)) in order.iter().zip(SKIP_RULE_GOLDEN[gi].iter()) {
                assert_eq!(s.raw(), id, "case {gi}: sweep order");
                let w = dut.sector_weights(s);
                let p = link.rx_power_dbm(&dut, w, &fixed, &rxw);
                assert_eq!(p.to_bits(), power, "case {gi} sector {s}: power {p}");
                assert_eq!(
                    plan.rx_power_dbm(w).to_bits(),
                    power,
                    "case {gi} sector {s}"
                );
                let t = link.true_snr_db(&dut, s, &fixed, &rxw);
                assert_eq!(t.to_bits(), snr, "case {gi} sector {s}: SNR {t}");
                assert_eq!(plan.true_snr_db(s).to_bits(), snr, "case {gi} sector {s}");
            }
            let mut rng = sub_rng(99, "golden-probe-extra");
            let sweep = link.sweep(&mut rng, &dut, &order, &fixed);
            assert_eq!(digest(&sweep), SKIP_RULE_DIGESTS[gi], "case {gi}");
            gi += 1;
        }
    }
}

/// Sweep digests of [`skip_rule_devices_match_the_pinned_bits`], per case.
const SKIP_RULE_DIGESTS: [u64; 4] = [
    0xb0c23f04bdcc926d,
    0x86b58e05bc0a2c0d,
    0xe72622cff05e123a,
    0xa4d1f891a4b3289f,
];

/// `(sector, rx_power_dbm bits, true_snr_db bits)` for the dead-element
/// device then the random-beam device, each at the neutral and the yawed
/// orientation, in the lab, in sweep order.
const SKIP_RULE_GOLDEN: [[(u8, u64, u64); 34]; 4] = [
    [
        (1, 0xc05150efd16a7264, 0x4001e205d2b1b380),
        (2, 0xc05183cb628ca746, 0x3ff70d275cd62e80),
        (3, 0xc04ce063de5a1f79, 0x402b7e708697821c),
        (4, 0xc050219fa48577b0, 0x401be605b7a88500),
        (5, 0xc0518787f873444e, 0x3ff61e01e32eec80),
        (6, 0xc04ce063de5a1f79, 0x402b7e708697821c),
        (7, 0xc050a9483b0624c6, 0x40136b7c4f9db3a0),
        (8, 0xc05243e3919a063b, 0xbff8f8e466818ec0),
        (9, 0xc04cb24b69b8d0e8, 0x402c36d2591cbc60),
        (10, 0xc0508b25cc3bb3ed, 0x40154da33c44c130),
        (11, 0xc0532ed8b4d29f28, 0xc014ed8b4d29f280),
        (12, 0xc04c0941a9a7abd3, 0x402edaf9596150b4),
        (13, 0xc04e6c92b0809ebe, 0x40254db53dfd8508),
        (14, 0xc04d46af7ec1d75a, 0x4029e54204f8a298),
        (15, 0xc0494d18cd920fd4, 0x4034e5ce64dbe058),
        (16, 0xc04c64d91089aef4, 0x402d6c9bbdd94430),
        (17, 0xc04d5221e0bcf784, 0x4029b7787d0c21f0),
        (18, 0xc0494d18cd920fd4, 0x4034e5ce64dbe058),
        (19, 0xc04b4d27dbb31683, 0x4030e5b04899d2fa),
        (20, 0xc04d2f95e0244be1, 0x402a41a87f6ed07c),
        (21, 0xc04bf3b29bc9c10d, 0x402f313590d8fbcc),
        (22, 0xc04f4872e2cc2e2f, 0x4021de3474cf4744),
        (23, 0xc050b77ed17645d9, 0x40128812e89ba270),
        (24, 0xc04debc35ea54572, 0x402750f2856aea38),
        (25, 0xc0507e5c3a2f3e14, 0x40161a3c5d0c1ec0),
        (26, 0xc04c49258fb5a9b9, 0x402ddb69c129591c),
        (27, 0xc0532a970f4ed162, 0xc014a970f4ed1620),
        (28, 0xc04ee028fb10ee83, 0x40237f5c13bc45f4),
        (29, 0xc0522dc39727477c, 0xbff370e5c9d1df00),
        (30, 0xc051101d42f378f8, 0x4009fc57a190e100),
        (31, 0xc050775b3b36ded9, 0x40168a4c4c921270),
        (61, 0xc0502d7ddefdfddd, 0x401b282210202230),
        (62, 0xc04c955a14ba53d5, 0x402caa97ad16b0ac),
        (63, 0xc047f2c15c1e9dca, 0x40379a7d47c2c46c),
    ],
    [
        (1, 0xc0523959da1d8ea7, 0xbff656768763a9c0),
        (2, 0xc05289f30a47e73e, 0xc0053e6148fce7c0),
        (3, 0xc051ba3388ec16d3, 0x3fe2e63b89f49680),
        (4, 0xc0522ee33f98c13d, 0xbff3b8cfe6304f40),
        (5, 0xc054f0765c0d4fc8, 0xc02883b2e06a7e40),
        (6, 0xc051ba3388ec16d3, 0x3fe2e63b89f49680),
        (7, 0xc051b06eab96da75, 0x3fe7c8aa3492c580),
        (8, 0xc051d8c5ab5c4f4b, 0x3fbce9528ec2d400),
        (9, 0xc0523ded1c8f0a35, 0xbff77b4723c28d40),
        (10, 0xc051d7ab2d327750, 0x3fc0a9a59b116000),
        (11, 0xc052cfb8c515cb78, 0xc00df718a2b96f00),
        (12, 0xc052234f3b0551e4, 0xbff0d3cec1547900),
        (13, 0xc0522d128c13e3ae, 0xbff344a304f8eb80),
        (14, 0xc053c56dfdbbc765, 0xc01e56dfdbbc7650),
        (15, 0xc05662cf9c69e84b, 0xc0320b3e71a7a12c),
        (16, 0xc0559a26a4f9199f, 0xc02dd13527c8ccf8),
        (17, 0xc056003cb5546bd3, 0xc03080f2d551af4c),
        (18, 0xc05662cf9c69e84b, 0xc0320b3e71a7a12c),
        (19, 0xc053f84d78bf565e, 0xc020c26bc5fab2f0),
        (20, 0xc054709ccab6bd06, 0xc02484e655b5e830),
        (21, 0xc05378fbbe281d64, 0xc0198fbbe281d640),
        (22, 0xc054daf525d8610a, 0xc027d7a92ec30850),
        (23, 0xc055b6cb6de5675d, 0xc02eb65b6f2b3ae8),
        (24, 0xc053e59cde8b4d1d, 0xc0202ce6f45a68e8),
        (25, 0xc0545678e54bde8b, 0xc023b3c72a5ef458),
        (26, 0xc052679ccc9b1a99, 0xc000f39993635320),
        (27, 0xc05265b89f8e6489, 0xc000b713f1cc9120),
        (28, 0xc05366107c7f5b33, 0xc0186107c7f5b330),
        (29, 0xc0546cc6e39668fd, 0xc02466371cb347e8),
        (30, 0xc05232025fe78d5c, 0xbff48097f9e35700),
        (31, 0xc052b5728ecf1902, 0xc00aae51d9e32040),
        (61, 0xc05363ed4941e1fc, 0xc0183ed4941e1fc0),
        (62, 0xc0540e40aa6c751b, 0xc02172055363a8d8),
        (63, 0xc05475d184c7bca8, 0xc024ae8c263de540),
    ],
    [
        (1, 0xc0502450a9693956, 0x401bbaf5696c6aa0),
        (2, 0xc04e3d8973995a9e, 0x402609da319a9588),
        (3, 0xc04f801be540b7ba, 0x4020ff906afd2118),
        (4, 0xc05282adbdd3e51d, 0xc00455b7ba7ca3a0),
        (5, 0xc04d516c15ed0906, 0x4029ba4fa84bdbe8),
        (6, 0xc04c229a74101b34, 0x402e75962fbf9330),
        (7, 0xc04c3112b6850add, 0x402e3bb525ebd48c),
        (8, 0xc04d5dd3b342f0dd, 0x402988b132f43c8c),
        (9, 0xc0503d9bf2d33611, 0x401a2640d2cc9ef0),
        (10, 0xc050024580f3170f, 0x401ddba7f0ce8f10),
        (11, 0xc04ea976b1fde0b9, 0x40245a2538087d1c),
        (12, 0xc0513148f35d2e1c, 0x4005d6e1945a3c80),
        (13, 0xc04cf11dc0d5fbfc, 0x402b3b88fca81010),
        (14, 0xc04f5240f4ab5550, 0x4021b6fc2d52aac0),
        (15, 0xc0505ee6dbc20d00, 0x4018119243df3000),
        (16, 0xc05161357a4d3a43, 0x3fffb2a16cb16f40),
        (17, 0xc04e65b2a7fd764f, 0x40256935600a26c4),
        (18, 0xc04d5a94c14ff882, 0x402995acfac01df8),
        (19, 0xc04eb68c0f12c563, 0x402425cfc3b4ea74),
        (20, 0xc04d47bf87519d28, 0x4029e101e2b98b60),
        (21, 0xc04f681febb710a6, 0x40215f805123bd68),
        (22, 0xc04e6bb0db519c5b, 0x4025513c92b98e94),
        (23, 0xc04ef7d1c635fbc5, 0x402320b8e72810ec),
        (24, 0xc04f708bf05b742e, 0x40213dd03e922f48),
        (25, 0xc04f6ba00efe79d0, 0x4021517fc40618c0),
        (26, 0xc04b8fb51f9ac718, 0x40306095c0ca71d0),
        (27, 0xc04d07fe22859c10, 0x402ae00775e98fc0),
        (28, 0xc04fd98effd27972, 0x401f3388016c3470),
        (29, 0xc04e0d1224cb37aa, 0x4026cbb76cd32158),
        (30, 0xc050c33269d80204, 0x4011ccd9627fdfc0),
        (31, 0xc05134c260ed8a97, 0x400567b3e24ead20),
        (61, 0xc0522d23fc58dc54, 0xbff348ff16371500),
        (62, 0xc04e0574ed1d7ec1, 0x4026ea2c4b8a04fc),
        (63, 0xc04d8d6ee800b82b, 0x4028ca445ffd1f54),
    ],
    [
        (1, 0xc0540fed7b648c24, 0xc0217f6bdb246120),
        (2, 0xc054f0e241b6f5a0, 0xc02887120db7ad00),
        (3, 0xc05333f99dd8b9f0, 0xc0153f99dd8b9f00),
        (4, 0xc05372526905bbc3, 0xc0192526905bbc30),
        (5, 0xc055a00dfcd540be, 0xc02e006fe6aa05f0),
        (6, 0xc054494dfb9027bb, 0xc0234a6fdc813dd8),
        (7, 0xc0531162ff0f491b, 0xc013162ff0f491b0),
        (8, 0xc05358855bb99ae8, 0xc0178855bb99ae80),
        (9, 0xc053e7fd5afa4b6b, 0xc0203fead7d25b58),
        (10, 0xc0538e5adb3d25d4, 0xc01ae5adb3d25d40),
        (11, 0xc0545b27d7a5997e, 0xc023d93ebd2ccbf0),
        (12, 0xc053d890a674f7fa, 0xc01f890a674f7fa0),
        (13, 0xc055015d3f8a8928, 0xc0290ae9fc544940),
        (14, 0xc053d6e94554574e, 0xc01f6e94554574e0),
        (15, 0xc052bf6306e014e2, 0xc00bec60dc029c40),
        (16, 0xc0542a0566489563, 0xc022502b3244ab18),
        (17, 0xc054a3162e565d09, 0xc02618b172b2e848),
        (18, 0xc05387a0481ba583, 0xc01a7a0481ba5830),
        (19, 0xc0539b13bddb1648, 0xc01bb13bddb16480),
        (20, 0xc054d2d9b01ff38b, 0xc02796cd80ff9c58),
        (21, 0xc052caa5d13418f2, 0xc00d54ba26831e40),
        (22, 0xc0542fbe37294b88, 0xc0227df1b94a5c40),
        (23, 0xc0565ddaabd2aa7f, 0xc031f76aaf4aa9fc),
        (24, 0xc0532b73e841470f, 0xc014b73e841470f0),
        (25, 0xc053a0acdc590a9c, 0xc01c0acdc590a9c0),
        (26, 0xc05418aed17828ed, 0xc021c5768bc14768),
        (27, 0xc054bd687c1a8a7a, 0xc026eb43e0d453d0),
        (28, 0xc05304d7dfb6788d, 0xc0124d7dfb6788d0),
        (29, 0xc0557c2f3081fbb2, 0xc02ce179840fdd90),
        (30, 0xc0536c4b19546cc5, 0xc018c4b19546cc50),
        (31, 0xc0534af03135ac02, 0xc016af03135ac020),
        (61, 0xc05355c18d64df42, 0xc0175c18d64df420),
        (62, 0xc0539257e46798b8, 0xc01b257e46798b80),
        (63, 0xc053aa82b9ae167a, 0xc01ca82b9ae167a0),
    ],
];
