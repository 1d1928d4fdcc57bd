//! Property-based tests for the declarative spec layer — above all, that
//! the XML round-trip is lossless for anything the spec types can hold.

use proptest::prelude::*;
use toto_spec::model::{HourlyTable, MetricModelSpec, ModelSetSpec, SteadyStateSpec};
use toto_spec::xml::XmlElement;
use toto_spec::{EditionKind, ResourceKind, ScenarioSpec};

proptest! {
    #[test]
    fn xml_text_escaping_round_trips(text in "[ -~]{0,60}") {
        let doc = XmlElement::new("t").with_text(text.trim().to_string());
        let back = XmlElement::parse(&doc.to_xml_string()).unwrap();
        prop_assert_eq!(back.text, text.trim());
    }

    #[test]
    fn xml_attribute_escaping_round_trips(value in "[ -~]{0,60}") {
        let doc = XmlElement::new("t").attr("v", &value);
        let back = XmlElement::parse(&doc.to_xml_string()).unwrap();
        prop_assert_eq!(back.get_attr("v"), Some(value.as_str()));
    }

    #[test]
    fn xml_tree_structure_round_trips(names in prop::collection::vec("[a-z][a-z0-9]{0,8}", 1..12)) {
        let mut root = XmlElement::new("root");
        for (i, n) in names.iter().enumerate() {
            root.children.push(XmlElement::new(n.clone()).attr("i", i));
        }
        let back = XmlElement::parse(&root.to_xml_string()).unwrap();
        prop_assert_eq!(back.children.len(), names.len());
        for (c, n) in back.children.iter().zip(&names) {
            prop_assert_eq!(&c.name, n);
        }
    }

    #[test]
    fn hourly_table_round_trips(mu in -1e3f64..1e3, sigma in 0.0f64..1e3) {
        let mut table = HourlyTable::constant(mu, sigma);
        table.cells[1][13] = (mu * 2.0, sigma + 1.0);
        let spec = ModelSetSpec {
            version: 1,
            base_seed: 2,
            models: vec![MetricModelSpec {
                resource: ResourceKind::Disk,
                target: toto_spec::model::TargetPopulation::All,
                persisted: true,
                report_period_secs: 1200,
                reset_value: 0.0,
                additive: true,
                secondary_scale: 1.0,
                seed_salt: 0,
                steady: SteadyStateSpec { hourly: table },
                initial: None,
                rapid: None,
            }],
        };
        let back = ModelSetSpec::from_xml_str(&spec.to_xml_string()).unwrap();
        prop_assert_eq!(back, spec);
    }

    #[test]
    fn density_scaling_is_linear(density in 1u32..500) {
        let base = ScenarioSpec::gen5_stage_cluster(100);
        let s = ScenarioSpec::gen5_stage_cluster(density);
        let expected = base.cpu_capacity_per_node() * density as f64 / 100.0;
        prop_assert!((s.cpu_capacity_per_node() - expected).abs() < 1e-9);
        prop_assert_eq!(s.disk_capacity_per_node(), base.disk_capacity_per_node());
    }
}

#[test]
fn edition_targets_cover_every_edition() {
    for e in EditionKind::ALL {
        assert!(toto_spec::model::TargetPopulation::All.matches(e));
    }
}
