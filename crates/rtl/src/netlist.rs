//! The netlist data structures: a flat, SSA-like module representation in
//! which every net has exactly one driver and every combinational operand
//! is defined before the net that reads it (a register's `next` and
//! `enable` may point forward). [`crate::lint::lint_module`] checks that
//! rule and every width.

use bits::ApInt;

/// Identifies a net within a module.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub usize);

/// Port direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortDir {
    Input,
    Output,
}

/// A module port.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Port {
    pub name: String,
    pub dir: PortDir,
    pub width: u32,
}

/// Combinational operators (the `comb` dialect subset used by Longnail).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CombOp {
    Add,
    Sub,
    Mul,
    DivU,
    DivS,
    RemU,
    RemS,
    And,
    Or,
    Xor,
    Not,
    Shl,
    ShrU,
    ShrS,
    Eq,
    Ne,
    Ult,
    Ule,
    Slt,
    Sle,
    /// args: cond, then, else.
    Mux,
    /// args: hi, lo.
    Concat,
    Replicate,
    /// Static slice; `lo` carried in the driver.
    Extract,
    /// args: base, offset — `(base >> offset)[width-1:0]`.
    ExtractDyn,
    ZExt,
    SExt,
    Trunc,
}

/// What drives a net.
#[derive(Debug, Clone, PartialEq)]
pub enum Driver {
    /// Value of the input port with this index.
    Input { port: usize },
    /// Constant.
    Const(ApInt),
    /// Combinational operator. `lo` is the offset for [`CombOp::Extract`]
    /// and the replication count for [`CombOp::Replicate`]; 0 otherwise.
    Comb {
        op: CombOp,
        args: Vec<NetId>,
        lo: u32,
    },
    /// Clocked register: latches `next` at the clock edge when `enable`
    /// (default true) holds; resets to `init`.
    Reg {
        next: NetId,
        enable: Option<NetId>,
        init: ApInt,
    },
    /// Combinational read of the module-internal ROM `rom` at `index`
    /// (out-of-range indices read zero).
    Rom { rom: usize, index: NetId },
}

impl Driver {
    /// The nets this driver reads combinationally: a comb operator's
    /// arguments or a ROM read's index. A register samples its `next` at
    /// the clock edge, so it has none.
    pub(crate) fn comb_operands(&self) -> &[NetId] {
        match self {
            Driver::Comb { args, .. } => args,
            Driver::Rom { index, .. } => std::slice::from_ref(index),
            Driver::Input { .. } | Driver::Const(_) | Driver::Reg { .. } => &[],
        }
    }

    /// [`Driver::comb_operands`], mutably.
    pub(crate) fn comb_operands_mut(&mut self) -> &mut [NetId] {
        match self {
            Driver::Comb { args, .. } => args,
            Driver::Rom { index, .. } => std::slice::from_mut(index),
            Driver::Input { .. } | Driver::Const(_) | Driver::Reg { .. } => &mut [],
        }
    }

    /// Every net this driver reads: its combinational operands, or a
    /// register's `next` and then its `enable`.
    pub(crate) fn operands(&self) -> impl Iterator<Item = &NetId> {
        let (next, enable) = match self {
            Driver::Reg { next, enable, .. } => (Some(next), enable.as_ref()),
            _ => (None, None),
        };
        self.comb_operands().iter().chain(next).chain(enable)
    }

    /// [`Driver::operands`], mutably.
    pub(crate) fn operands_mut(&mut self) -> impl Iterator<Item = &mut NetId> {
        let (comb, next, enable) = match self {
            Driver::Reg { next, enable, .. } => (&mut [][..], Some(next), enable.as_mut()),
            driver => (driver.comb_operands_mut(), None, None),
        };
        comb.iter_mut().chain(next).chain(enable)
    }
}

/// A net: a driver plus its bit width.
#[derive(Debug, Clone, PartialEq)]
pub struct Net {
    pub driver: Driver,
    pub width: u32,
    /// Debug name used by the Verilog emitter (may be empty).
    pub name: String,
}

/// An internalized constant table.
#[derive(Debug, Clone, PartialEq)]
pub struct RomData {
    pub name: String,
    pub width: u32,
    pub contents: Vec<ApInt>,
}

impl RomData {
    /// The word at `index`. Indices past the table (or past the
    /// platform's `usize`, which would otherwise wrap on 32-bit targets)
    /// read zero.
    pub(crate) fn read(&self, index: &ApInt) -> ApInt {
        index
            .try_to_u64()
            .and_then(|v| usize::try_from(v).ok())
            .and_then(|k| self.contents.get(k))
            .cloned()
            .unwrap_or_else(|| ApInt::zero(self.width))
    }
}

/// A hardware module.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Module {
    pub name: String,
    pub ports: Vec<Port>,
    pub nets: Vec<Net>,
    /// Output port index → net driving it.
    pub outputs: Vec<(usize, NetId)>,
    pub roms: Vec<RomData>,
}

impl Module {
    /// Creates an empty module (with no clock — add ports explicitly).
    pub fn new(name: &str) -> Self {
        Module {
            name: name.to_string(),
            ..Module::default()
        }
    }

    /// Adds a port, returning its index.
    pub fn add_port(&mut self, name: &str, dir: PortDir, width: u32) -> usize {
        self.ports.push(Port {
            name: name.to_string(),
            dir,
            width,
        });
        self.ports.len() - 1
    }

    /// Adds a net, returning its id.
    pub fn add_net(&mut self, driver: Driver, width: u32, name: &str) -> NetId {
        self.nets.push(Net {
            driver,
            width,
            name: name.to_string(),
        });
        NetId(self.nets.len() - 1)
    }

    /// Connects an output port to its driving net.
    pub fn connect_output(&mut self, port: usize, net: NetId) {
        debug_assert_eq!(self.ports[port].dir, PortDir::Output);
        self.outputs.push((port, net));
    }

    /// Port index by name.
    pub fn port(&self, name: &str) -> Option<usize> {
        self.ports.iter().position(|p| p.name == name)
    }

    /// Number of clocked register bits (used by the area model).
    pub fn register_bits(&self) -> u64 {
        self.nets
            .iter()
            .filter(|n| matches!(n.driver, Driver::Reg { .. }))
            .map(|n| n.width as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_bits_counted() {
        let mut m = Module::new("t");
        let a = m.add_port("a", PortDir::Input, 16);
        let o = m.add_port("o", PortDir::Output, 16);
        let na = m.add_net(Driver::Input { port: a }, 16, "a");
        let r = m.add_net(
            Driver::Reg {
                next: na,
                enable: None,
                init: bits::ApInt::zero(16),
            },
            16,
            "r",
        );
        m.connect_output(o, r);
        crate::lint::lint_module(&m).unwrap();
        assert_eq!(m.register_bits(), 16);
    }
}
