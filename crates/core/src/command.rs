//! The host ⇄ NPU command channel (paper §6.1): "The host CPU securely
//! delivers instructions (using a shared key) to the accelerator via a
//! PCIe link to execute a layer of the CNN."
//!
//! Commands carry the per-layer security configuration — the VN triplet
//! `⟨η, κ, ρ⟩`, tensor bindings, and layer ids — and are authenticated
//! with a MAC under the shared session key plus a monotonically
//! increasing sequence number, so a bus adversary can neither forge,
//! tamper with, reorder, nor replay them.

use seculator_arch::pattern::PatternSpec;
use seculator_crypto::keys::SessionKey;
use seculator_crypto::sha256::Sha256;

/// An instruction from the host scheduler to the NPU.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Announce a model: number of layers, weight region base.
    LoadModel {
        /// Total layer count.
        layers: u32,
        /// DRAM base address of the (encrypted) weight image.
        weight_base: u64,
    },
    /// Configure the next layer's security parameters.
    ConfigureLayer {
        /// Layer id (`L`).
        layer_id: u32,
        /// Write-pattern triplet `⟨η, κ, ρ⟩`.
        write_eta: u64,
        /// κ.
        write_kappa: u32,
        /// ρ.
        write_rho: u64,
        /// Previous layer's final VN (for ifmap decryption).
        prev_final_vn: u32,
    },
    /// Launch the configured layer.
    RunLayer {
        /// Layer id to run (must match the configured one).
        layer_id: u32,
    },
    /// Ask for the run's final status after the last layer.
    Finalize,
}

/// A command wrapped with its authentication envelope.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AuthenticatedCommand {
    /// The instruction.
    pub command: Command,
    /// Strictly increasing per-session sequence number.
    pub sequence: u64,
    /// `trunc128(SHA256(key ‖ sequence ‖ encoding(command)))`.
    pub tag: [u8; 16],
}

fn encode(command: &Command) -> Vec<u8> {
    // A stable, explicit wire encoding (field-order serialization).
    let mut out = Vec::with_capacity(32);
    match *command {
        Command::LoadModel {
            layers,
            weight_base,
        } => {
            out.push(1);
            out.extend_from_slice(&layers.to_le_bytes());
            out.extend_from_slice(&weight_base.to_le_bytes());
        }
        Command::ConfigureLayer {
            layer_id,
            write_eta,
            write_kappa,
            write_rho,
            prev_final_vn,
        } => {
            out.push(2);
            out.extend_from_slice(&layer_id.to_le_bytes());
            out.extend_from_slice(&write_eta.to_le_bytes());
            out.extend_from_slice(&write_kappa.to_le_bytes());
            out.extend_from_slice(&write_rho.to_le_bytes());
            out.extend_from_slice(&prev_final_vn.to_le_bytes());
        }
        Command::RunLayer { layer_id } => {
            out.push(3);
            out.extend_from_slice(&layer_id.to_le_bytes());
        }
        Command::Finalize => out.push(4),
    }
    out
}

fn tag_for(key: &SessionKey, sequence: u64, command: &Command) -> [u8; 16] {
    let mut h = Sha256::new();
    h.update(&key.0);
    h.update(&sequence.to_le_bytes());
    h.update(&encode(command));
    let digest = h.finalize();
    let mut tag = [0u8; 16];
    tag.copy_from_slice(&digest[..16]);
    tag
}

/// The host side: signs commands with the shared key and a running
/// sequence number.
///
/// # Examples
///
/// ```
/// use seculator_core::command::{Command, HostChannel, NpuCommandProcessor};
/// use seculator_crypto::keys::{DeviceSecret, SessionKey};
///
/// let key = SessionKey::derive(&DeviceSecret::from_seed(1), 7);
/// let mut host = HostChannel::new(key);
/// let mut npu = NpuCommandProcessor::new(key);
/// let msg = host.send(Command::LoadModel { layers: 3, weight_base: 0 });
/// npu.receive(&msg).expect("authentic command verifies");
/// ```
#[derive(Debug, Clone)]
pub struct HostChannel {
    key: SessionKey,
    next_sequence: u64,
}

impl HostChannel {
    /// Opens a channel under the shared session key.
    #[must_use]
    pub fn new(key: SessionKey) -> Self {
        Self {
            key,
            next_sequence: 0,
        }
    }

    /// Signs and sequences a command for transmission.
    pub fn send(&mut self, command: Command) -> AuthenticatedCommand {
        let sequence = self.next_sequence;
        self.next_sequence += 1;
        AuthenticatedCommand {
            command,
            sequence,
            tag: tag_for(&self.key, sequence, &command),
        }
    }

    /// Convenience: the `ConfigureLayer` command for a pattern triplet.
    #[must_use]
    pub fn configure_layer(layer_id: u32, pattern: PatternSpec, prev_final_vn: u32) -> Command {
        Command::ConfigureLayer {
            layer_id,
            write_eta: pattern.eta,
            write_kappa: pattern.kappa,
            write_rho: pattern.rho,
            prev_final_vn,
        }
    }
}

/// Why the NPU rejected a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandError {
    /// The MAC did not verify (forgery or in-flight tampering).
    BadTag,
    /// The sequence number was not the next expected one (replay or
    /// reordering).
    BadSequence {
        /// What the NPU expected.
        expected: u64,
        /// What arrived.
        got: u64,
    },
    /// A `RunLayer` arrived for a layer that was never configured.
    NotConfigured {
        /// The offending layer id.
        layer_id: u32,
    },
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadTag => write!(f, "command authentication failed"),
            Self::BadSequence { expected, got } => {
                write!(f, "sequence violation: expected {expected}, got {got}")
            }
            Self::NotConfigured { layer_id } => {
                write!(f, "layer {layer_id} was not configured before RunLayer")
            }
        }
    }
}

impl std::error::Error for CommandError {}

/// The NPU side: verifies tags and sequencing, tracks configuration
/// state.
#[derive(Debug, Clone)]
pub struct NpuCommandProcessor {
    key: SessionKey,
    expected_sequence: u64,
    configured_layer: Option<u32>,
    layers_run: u32,
    model_layers: Option<u32>,
}

impl NpuCommandProcessor {
    /// Opens the receiving end under the shared key.
    #[must_use]
    pub fn new(key: SessionKey) -> Self {
        Self {
            key,
            expected_sequence: 0,
            configured_layer: None,
            layers_run: 0,
            model_layers: None,
        }
    }

    /// Number of layers successfully launched.
    #[must_use]
    pub fn layers_run(&self) -> u32 {
        self.layers_run
    }

    /// Verifies and executes one command (state transitions only — the
    /// data path is driven separately).
    ///
    /// # Errors
    ///
    /// Returns [`CommandError`] on forgery, replay/reorder, or protocol
    /// violations. The paper's response to any of these is a reboot.
    pub fn receive(&mut self, msg: &AuthenticatedCommand) -> Result<(), CommandError> {
        if tag_for(&self.key, msg.sequence, &msg.command) != msg.tag {
            return Err(CommandError::BadTag);
        }
        if msg.sequence != self.expected_sequence {
            return Err(CommandError::BadSequence {
                expected: self.expected_sequence,
                got: msg.sequence,
            });
        }
        self.expected_sequence += 1;
        match msg.command {
            Command::LoadModel { layers, .. } => {
                self.model_layers = Some(layers);
                self.layers_run = 0;
                self.configured_layer = None;
            }
            Command::ConfigureLayer { layer_id, .. } => {
                self.configured_layer = Some(layer_id);
            }
            Command::RunLayer { layer_id } => {
                if self.configured_layer != Some(layer_id) {
                    return Err(CommandError::NotConfigured { layer_id });
                }
                self.configured_layer = None;
                self.layers_run += 1;
            }
            Command::Finalize => {}
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use seculator_crypto::keys::DeviceSecret;

    fn key() -> SessionKey {
        SessionKey::derive(&DeviceSecret::from_seed(5), 77)
    }

    #[test]
    fn full_protocol_round_trip() {
        let mut host = HostChannel::new(key());
        let mut npu = NpuCommandProcessor::new(key());
        let pattern = PatternSpec::new(4, 3, 2);
        npu.receive(&host.send(Command::LoadModel {
            layers: 2,
            weight_base: 0x1000,
        }))
        .unwrap();
        for layer in 0..2 {
            npu.receive(&host.send(HostChannel::configure_layer(layer, pattern, 1)))
                .unwrap();
            npu.receive(&host.send(Command::RunLayer { layer_id: layer }))
                .unwrap();
        }
        npu.receive(&host.send(Command::Finalize)).unwrap();
        assert_eq!(npu.layers_run(), 2);
    }

    #[test]
    fn tampered_command_is_rejected() {
        let mut host = HostChannel::new(key());
        let mut npu = NpuCommandProcessor::new(key());
        let mut msg = host.send(Command::LoadModel {
            layers: 2,
            weight_base: 0,
        });
        // In-flight modification of the payload.
        msg.command = Command::LoadModel {
            layers: 99,
            weight_base: 0,
        };
        assert_eq!(npu.receive(&msg), Err(CommandError::BadTag));
    }

    #[test]
    fn forged_tag_is_rejected() {
        let mut host = HostChannel::new(key());
        let attacker_key = SessionKey::derive(&DeviceSecret::from_seed(6), 78);
        let mut npu = NpuCommandProcessor::new(attacker_key);
        let msg = host.send(Command::Finalize);
        assert_eq!(npu.receive(&msg), Err(CommandError::BadTag));
    }

    #[test]
    fn replayed_command_is_rejected() {
        let mut host = HostChannel::new(key());
        let mut npu = NpuCommandProcessor::new(key());
        let msg = host.send(Command::LoadModel {
            layers: 1,
            weight_base: 0,
        });
        npu.receive(&msg).unwrap();
        assert!(matches!(
            npu.receive(&msg),
            Err(CommandError::BadSequence { .. })
        ));
    }

    #[test]
    fn reordered_commands_are_rejected() {
        let mut host = HostChannel::new(key());
        let mut npu = NpuCommandProcessor::new(key());
        let first = host.send(Command::LoadModel {
            layers: 1,
            weight_base: 0,
        });
        let second = host.send(Command::Finalize);
        assert!(matches!(
            npu.receive(&second),
            Err(CommandError::BadSequence { .. })
        ));
        // The legitimate order still works afterwards.
        npu.receive(&first).unwrap();
        npu.receive(&second).unwrap();
    }

    #[test]
    fn run_without_configure_is_a_protocol_violation() {
        let mut host = HostChannel::new(key());
        let mut npu = NpuCommandProcessor::new(key());
        npu.receive(&host.send(Command::LoadModel {
            layers: 1,
            weight_base: 0,
        }))
        .unwrap();
        let msg = host.send(Command::RunLayer { layer_id: 0 });
        assert_eq!(
            npu.receive(&msg),
            Err(CommandError::NotConfigured { layer_id: 0 })
        );
    }
}
