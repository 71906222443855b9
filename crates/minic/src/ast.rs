//! The untyped abstract syntax tree produced by the parser.

use crate::diag::Span;
use crate::directive::{
    DataDirective, LocalAccess, ParallelDirective, ReductionToArrayDirective, UpdateDirective,
};

/// A C type in the dialect.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CType {
    Int,
    Float,
    Double,
    Void,
    /// Pointer to a scalar element type — used for 1-D array parameters.
    Ptr(Box<CType>),
}

impl std::fmt::Display for CType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CType::Int => write!(f, "int"),
            CType::Float => write!(f, "float"),
            CType::Double => write!(f, "double"),
            CType::Void => write!(f, "void"),
            CType::Ptr(t) => write!(f, "{t} *"),
        }
    }
}

/// A whole translation unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    pub functions: Vec<Function>,
}

impl Program {
    /// Find a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

/// A function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct Function {
    pub name: String,
    pub ret: CType,
    pub params: Vec<Param>,
    pub body: Block,
    pub span: Span,
}

/// A function parameter.
#[derive(Debug, Clone, PartialEq)]
pub struct Param {
    pub name: String,
    pub ty: CType,
    pub span: Span,
}

/// A `{ ... }` block.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
}

/// One declarator in a declaration (`int a = 0, b;` has two).
#[derive(Debug, Clone, PartialEq)]
pub struct Declarator {
    pub name: String,
    pub init: Option<Expr>,
    pub span: Span,
}

/// Statements.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    /// Scalar declaration(s).
    Decl {
        ty: CType,
        decls: Vec<Declarator>,
        span: Span,
    },
    /// Expression statement.
    Expr(Expr),
    /// Empty statement (`;`).
    Empty(Span),
    For {
        init: Option<Box<Stmt>>,
        cond: Option<Expr>,
        step: Option<Expr>,
        body: Box<Stmt>,
        span: Span,
    },
    While {
        cond: Expr,
        body: Box<Stmt>,
        span: Span,
    },
    If {
        cond: Expr,
        then_: Box<Stmt>,
        else_: Option<Box<Stmt>>,
        span: Span,
    },
    Return(Option<Expr>, Span),
    Break(Span),
    Continue(Span),
    Block(Block),

    /// `#pragma acc data ...` followed by a statement/block.
    DataRegion {
        dir: DataDirective,
        body: Box<Stmt>,
        span: Span,
    },
    /// `#pragma acc parallel loop ...` (optionally preceded/followed by
    /// `localaccess` pragmas) followed by a `for` statement.
    ParallelLoop {
        dir: ParallelDirective,
        localaccess: Vec<LocalAccess>,
        loop_: Box<Stmt>,
        span: Span,
    },
    /// `#pragma acc update ...`.
    Update { dir: UpdateDirective, span: Span },
    /// `#pragma acc reductiontoarray(...)` attached to the next statement.
    ReductionToArray {
        dir: ReductionToArrayDirective,
        stmt: Box<Stmt>,
        span: Span,
    },
}

impl Stmt {
    /// The source span of the statement.
    pub fn span(&self) -> Span {
        match self {
            Stmt::Decl { span, .. }
            | Stmt::Empty(span)
            | Stmt::For { span, .. }
            | Stmt::While { span, .. }
            | Stmt::If { span, .. }
            | Stmt::Return(_, span)
            | Stmt::Break(span)
            | Stmt::Continue(span)
            | Stmt::DataRegion { span, .. }
            | Stmt::ParallelLoop { span, .. }
            | Stmt::Update { span, .. }
            | Stmt::ReductionToArray { span, .. } => *span,
            Stmt::Expr(e) => e.span(),
            Stmt::Block(b) => b
                .stmts
                .first()
                .map(|s| s.span())
                .unwrap_or_default(),
        }
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    Neg,
    Not,
    BitNot,
    PreInc,
    PreDec,
}

/// Postfix operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PostfixOp {
    PostInc,
    PostDec,
}

/// Binary operators (C precedence handled by the parser).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Shl,
    Shr,
    Lt,
    Le,
    Gt,
    Ge,
    Eq,
    Ne,
    BitAnd,
    BitXor,
    BitOr,
    LAnd,
    LOr,
}

/// Assignment operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssignOp {
    Assign,
    AddAssign,
    SubAssign,
    MulAssign,
    DivAssign,
}

impl AssignOp {
    /// The underlying binary operator of a compound assignment.
    pub fn binary(self) -> Option<BinaryOp> {
        Some(match self {
            AssignOp::Assign => return None,
            AssignOp::AddAssign => BinaryOp::Add,
            AssignOp::SubAssign => BinaryOp::Sub,
            AssignOp::MulAssign => BinaryOp::Mul,
            AssignOp::DivAssign => BinaryOp::Div,
        })
    }
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    IntLit(i64, Span),
    F64Lit(f64, Span),
    F32Lit(f32, Span),
    Ident(String, Span),
    Index {
        base: Box<Expr>,
        idx: Box<Expr>,
        span: Span,
    },
    Call {
        name: String,
        args: Vec<Expr>,
        span: Span,
    },
    Unary {
        op: UnaryOp,
        expr: Box<Expr>,
        span: Span,
    },
    Postfix {
        op: PostfixOp,
        expr: Box<Expr>,
        span: Span,
    },
    Binary {
        op: BinaryOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    Assign {
        op: AssignOp,
        lhs: Box<Expr>,
        rhs: Box<Expr>,
        span: Span,
    },
    Ternary {
        cond: Box<Expr>,
        then_: Box<Expr>,
        else_: Box<Expr>,
        span: Span,
    },
    Cast {
        ty: CType,
        expr: Box<Expr>,
        span: Span,
    },
}

impl Expr {
    /// The source span of the expression.
    pub fn span(&self) -> Span {
        match self {
            Expr::IntLit(_, s)
            | Expr::F64Lit(_, s)
            | Expr::F32Lit(_, s)
            | Expr::Ident(_, s)
            | Expr::Index { span: s, .. }
            | Expr::Call { span: s, .. }
            | Expr::Unary { span: s, .. }
            | Expr::Postfix { span: s, .. }
            | Expr::Binary { span: s, .. }
            | Expr::Assign { span: s, .. }
            | Expr::Ternary { span: s, .. }
            | Expr::Cast { span: s, .. } => *s,
        }
    }
}
