//! The SCAIE-V configuration file emitted by Longnail after HLS
//! (paper §4.6, Figure 8).
//!
//! The file carries: requested ISAX-internal state elements, each
//! instruction's encoding, and the computed interface schedule (which
//! sub-interfaces are used in which stages, with valid bits where state
//! updates are conditional or originate from `always`-blocks).

use crate::modes::ExecutionMode;
use crate::yaml::{unquote, Doc, Item};
use std::collections::BTreeMap;

/// A request for a SCAIE-V-managed custom register (paper §3.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegisterRequest {
    pub name: String,
    /// Element data width.
    pub width: u32,
    /// Number of elements.
    pub elements: u64,
}

/// One scheduled sub-interface use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduleEntry {
    /// Sub-interface key (e.g. `RdPC`, `WrCOUNT.data`).
    pub interface: String,
    /// Scheduled stage.
    pub stage: u32,
    /// True if the signal carries an explicit valid bit (mandatory for
    /// state updates from `always`-blocks).
    pub has_valid: bool,
    /// Execution-mode variant selected for this interface use (§4.3).
    pub mode: ExecutionMode,
}

/// A functionality: an instruction (with encoding) or an `always`-block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Functionality {
    pub name: String,
    /// 32-character `0`/`1`/`-` decode pattern; `None` for `always`-blocks.
    pub encoding: Option<String>,
    pub schedule: Vec<ScheduleEntry>,
}

impl Functionality {
    /// True for `always`-blocks.
    pub fn is_always(&self) -> bool {
        self.encoding.is_none()
    }
}

/// The complete configuration for one ISAX.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct IsaxConfig {
    /// ISAX name.
    pub name: String,
    /// Requested custom registers.
    pub registers: Vec<RegisterRequest>,
    /// Instructions and `always`-blocks.
    pub functionalities: Vec<Functionality>,
}

impl IsaxConfig {
    /// Total SCAIE-V schedule entries across all functionalities — the
    /// size of the interface contract the core integration must honor.
    pub fn schedule_entry_count(&self) -> usize {
        self.functionalities.iter().map(|f| f.schedule.len()).sum()
    }

    /// Renders the configuration in the Figure 8 YAML format.
    pub fn to_yaml(&self) -> String {
        let mut doc = Doc::default();
        doc.items.push(Item::Scalar {
            key: "isax".into(),
            value: self.name.clone(),
        });
        for r in &self.registers {
            doc.items.push(Item::Scalar {
                key: "register".into(),
                value: format!(
                    "{{name: {}, width: {}, elements: {}}}",
                    r.name, r.width, r.elements
                ),
            });
        }
        for f in &self.functionalities {
            match &f.encoding {
                Some(enc) => {
                    doc.items.push(Item::Scalar {
                        key: "instruction".into(),
                        value: f.name.clone(),
                    });
                    doc.items.push(Item::Scalar {
                        key: "encoding".into(),
                        value: format!("\"{enc}\""),
                    });
                }
                None => {
                    doc.items.push(Item::Scalar {
                        key: "always".into(),
                        value: f.name.clone(),
                    });
                }
            }
            let mut items = Vec::new();
            for e in &f.schedule {
                let mut map = BTreeMap::new();
                map.insert("interface".to_string(), e.interface.clone());
                map.insert("stage".to_string(), e.stage.to_string());
                if e.has_valid {
                    map.insert("has valid".to_string(), "1".to_string());
                }
                if e.mode != ExecutionMode::InPipeline {
                    map.insert("mode".to_string(), e.mode.to_string());
                }
                items.push(map);
            }
            doc.items.push(Item::List {
                key: "schedule".into(),
                items,
            });
        }
        doc.render()
    }

    /// Parses a configuration from the Figure 8 YAML format.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed entry.
    pub fn from_yaml(text: &str) -> Result<IsaxConfig, String> {
        let doc = Doc::parse(text)?;
        let mut config = IsaxConfig::default();
        let mut current: Option<Functionality> = None;
        for item in &doc.items {
            match item {
                Item::Scalar { key, value } => match key.as_str() {
                    "isax" => config.name = value.clone(),
                    "register" => {
                        let body = value
                            .strip_prefix('{')
                            .and_then(|s| s.strip_suffix('}'))
                            .ok_or("register must be an inline map")?;
                        let mut map = BTreeMap::new();
                        for pair in body.split(',') {
                            let (k, v) = pair.split_once(':').ok_or("bad register field")?;
                            map.insert(k.trim().to_string(), v.trim().to_string());
                        }
                        config.registers.push(RegisterRequest {
                            name: map.get("name").ok_or("register lacks name")?.clone(),
                            width: map
                                .get("width")
                                .ok_or("register lacks width")?
                                .parse()
                                .map_err(|_| "bad width")?,
                            elements: map
                                .get("elements")
                                .map(|v| v.parse().map_err(|_| "bad elements"))
                                .transpose()?
                                .unwrap_or(1),
                        });
                    }
                    "instruction" => {
                        if let Some(f) = current.take() {
                            config.functionalities.push(f);
                        }
                        current = Some(Functionality {
                            name: value.clone(),
                            encoding: Some(String::new()),
                            schedule: Vec::new(),
                        });
                    }
                    "encoding" => {
                        let f = current.as_mut().ok_or("encoding outside instruction")?;
                        f.encoding = Some(unquote(value).to_string());
                    }
                    "always" => {
                        if let Some(f) = current.take() {
                            config.functionalities.push(f);
                        }
                        current = Some(Functionality {
                            name: value.clone(),
                            encoding: None,
                            schedule: Vec::new(),
                        });
                    }
                    _ => return Err(format!("unknown key `{key}`")),
                },
                Item::List { key, items } => {
                    if key != "schedule" {
                        return Err(format!("unknown list `{key}`"));
                    }
                    let f = current
                        .as_mut()
                        .ok_or("schedule outside instruction/always")?;
                    for map in items {
                        f.schedule.push(ScheduleEntry {
                            interface: map
                                .get("interface")
                                .ok_or("schedule entry lacks interface")?
                                .clone(),
                            stage: map
                                .get("stage")
                                .ok_or("schedule entry lacks stage")?
                                .parse()
                                .map_err(|_| "bad stage")?,
                            has_valid: map.get("has valid").map(|v| v == "1").unwrap_or(false),
                            mode: map
                                .get("mode")
                                .map(|m| ExecutionMode::parse(m).ok_or("bad mode"))
                                .transpose()?
                                .unwrap_or(ExecutionMode::InPipeline),
                        });
                    }
                }
            }
        }
        if let Some(f) = current.take() {
            config.functionalities.push(f);
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn zol_config() -> IsaxConfig {
        IsaxConfig {
            name: "zol".into(),
            registers: vec![
                RegisterRequest {
                    name: "COUNT".into(),
                    width: 32,
                    elements: 1,
                },
                RegisterRequest {
                    name: "START_PC".into(),
                    width: 32,
                    elements: 1,
                },
            ],
            functionalities: vec![
                Functionality {
                    name: "setup_zol".into(),
                    encoding: Some("-----------------101000000001011".into()),
                    schedule: vec![
                        ScheduleEntry {
                            interface: "RdPC".into(),
                            stage: 1,
                            has_valid: false,
                            mode: ExecutionMode::InPipeline,
                        },
                        ScheduleEntry {
                            interface: "WrCOUNT.data".into(),
                            stage: 1,
                            has_valid: true,
                            mode: ExecutionMode::InPipeline,
                        },
                    ],
                },
                Functionality {
                    name: "zol".into(),
                    encoding: None,
                    schedule: vec![ScheduleEntry {
                        interface: "WrPC".into(),
                        stage: 0,
                        has_valid: true,
                        mode: ExecutionMode::Always,
                    }],
                },
            ],
        }
    }

    #[test]
    fn yaml_round_trip() {
        let config = zol_config();
        let text = config.to_yaml();
        assert!(text.contains("register: {name: COUNT, width: 32, elements: 1}"));
        assert!(text.contains("instruction: setup_zol"));
        assert!(text.contains("always: zol"));
        assert!(text.contains("has valid: 1"));
        let parsed = IsaxConfig::from_yaml(&text).unwrap();
        assert_eq!(parsed, config);
    }

    #[test]
    fn always_block_detection() {
        let config = zol_config();
        assert!(!config.functionalities[0].is_always());
        assert!(config.functionalities[1].is_always());
    }
}
