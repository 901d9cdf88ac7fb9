//! The sect571r1 binary elliptic curve and the Montgomery-ladder scalar
//! multiplication the paper attacks.
//!
//! The curve is `y² + xy = x³ + ax² + b` over GF(2^571) with `a = 1`
//! (SEC 2 parameters). Scalar multiplication uses the López–Dahab
//! Montgomery ladder exactly as OpenSSL 1.0.1e's `ec_GF2m_montgomery_point_multiply`
//! does: per key bit, one `Madd` and one `Mdouble`, selected by
//! secret-dependent control flow — which is the cache side channel the paper
//! exploits (Figure 8).
//!
//! Step 4's candidate search does not run the ladder per candidate: it walks
//! from one candidate nonce to the next by adding ±2^i·G in López–Dahab
//! projective coordinates ([`LdPoint`], [`Curve::add_mixed`]), from a
//! process-wide table of 2^i·G ([`Curve::generator_doublings`]).

use crate::gf2m::{Gf571, DEGREE};
use crate::scalar::Scalar;
use std::sync::OnceLock;

/// An affine point on sect571r1, or the point at infinity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// The point at infinity (group identity).
    Infinity,
    /// An affine point (x, y).
    Affine {
        /// x coordinate.
        x: Gf571,
        /// y coordinate.
        y: Gf571,
    },
}

impl Point {
    /// Creates an affine point.
    pub fn affine(x: Gf571, y: Gf571) -> Self {
        Point::Affine { x, y }
    }

    /// True if this is the point at infinity.
    pub fn is_infinity(&self) -> bool {
        matches!(self, Point::Infinity)
    }

    /// The x coordinate, if the point is affine.
    pub fn x(&self) -> Option<Gf571> {
        match self {
            Point::Infinity => None,
            Point::Affine { x, .. } => Some(*x),
        }
    }

    /// The y coordinate, if the point is affine.
    pub fn y(&self) -> Option<Gf571> {
        match self {
            Point::Infinity => None,
            Point::Affine { y, .. } => Some(*y),
        }
    }
}

/// A point in López–Dahab projective coordinates: `(X : Y : Z)` with
/// `Z ≠ 0` is the affine point `(X/Z, Y/Z²)`, and `Z = 0` is the point at
/// infinity. Adding an affine point to one costs no inversion
/// ([`Curve::add_mixed`]).
#[derive(Debug, Clone, Copy)]
pub struct LdPoint {
    x: Gf571,
    y: Gf571,
    z: Gf571,
}

impl LdPoint {
    /// The point at infinity.
    pub const INFINITY: LdPoint = LdPoint { x: Gf571::ONE, y: Gf571::ZERO, z: Gf571::ZERO };

    /// The affine point `p` as `(x : y : 1)`.
    fn from_affine(p: &Point) -> Self {
        match p {
            Point::Infinity => Self::INFINITY,
            Point::Affine { x, y } => LdPoint { x: *x, y: *y, z: Gf571::ONE },
        }
    }

    /// True if this is the point at infinity.
    fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// True if the point is affine with x coordinate `x`: `X = x·Z` and
    /// `Z ≠ 0`, one multiplication instead of an inversion.
    pub fn has_affine_x(&self, x: &Gf571) -> bool {
        !self.is_infinity() && self.x == x.mul(&self.z)
    }
}

/// The affine forms of López–Dahab points, none of them infinity, with one
/// inversion (Montgomery's trick): invert the product of every `Z`, then
/// peel each `Z⁻¹` off it with two multiplications.
fn affine_all(points: &[LdPoint]) -> Vec<Point> {
    // prefix[i] is the product of the Z of points[..i].
    let mut prefix = Vec::with_capacity(points.len());
    let mut product = Gf571::ONE;
    for p in points {
        prefix.push(product);
        product = product.mul(&p.z);
    }
    // Inverse of the product of the Z of points[..=i], as i falls.
    let mut inverse = product.inverse();
    let mut affine = vec![Point::Infinity; points.len()];
    for (i, p) in points.iter().enumerate().rev() {
        let z_inv = inverse.mul(&prefix[i]);
        inverse = inverse.mul(&p.z);
        affine[i] = Point::affine(p.x.mul(&z_inv), p.y.mul(&z_inv.square()));
    }
    affine
}

/// The sect571r1 curve (SEC 2, version 2.0).
#[derive(Debug, Clone)]
pub struct Curve {
    a: Gf571,
    b: Gf571,
    generator: Point,
}

impl Default for Curve {
    fn default() -> Self {
        Self::sect571r1()
    }
}

impl Curve {
    /// Constructs the sect571r1 curve with its standard parameters.
    pub fn sect571r1() -> Self {
        let b = Gf571::from_hex(
            "02F40E7E2221F295DE297117B7F3D62F5C6A97FFCB8CEFF1CD6BA8CE4A9A18AD84FFABBD\
             8EFA59332BE7AD6756A66E294AFD185A78FF12AA520E4DE739BACA0C7FFEFF7F2955727A",
        );
        let gx = Gf571::from_hex(
            "0303001D34B856296C16C0D40D3CD7750A93D1D2955FA80AA5F40FC8DB7B2ABDBDE53950\
             F4C0D293CDD711A35B67FB1499AE60038614F1394ABFA3B4C850D927E1E7769C8EEC2D19",
        );
        let gy = Gf571::from_hex(
            "037BF27342DA639B6DCCFFFEB73D69D78C6C27A6009CBBCA1980F8533921E8A684423E43\
             BAB08A576291AF8F461BB2A8B3531D2F0485C19B16E2F1516E23DD3C1A4827AF1B8AC15B",
        );
        Self { a: Gf571::ONE, b, generator: Point::affine(gx, gy) }
    }

    /// The curve coefficient `a` (1 for sect571r1).
    pub fn a(&self) -> Gf571 {
        self.a
    }

    /// The curve coefficient `b`.
    pub fn b(&self) -> Gf571 {
        self.b
    }

    /// The standard base point G.
    pub fn generator(&self) -> Point {
        self.generator
    }

    /// Checks the curve equation `y² + xy = x³ + ax² + b`.
    pub fn is_on_curve(&self, point: &Point) -> bool {
        match point {
            Point::Infinity => true,
            Point::Affine { x, y } => {
                let lhs = y.square().add(&x.mul(y));
                let x2 = x.square();
                let rhs = x2.mul(x).add(&self.a.mul(&x2)).add(&self.b);
                lhs == rhs
            }
        }
    }

    /// Affine point addition (textbook formulas, used for verification and as
    /// a cross-check of the Montgomery ladder).
    pub fn add(&self, p: &Point, q: &Point) -> Point {
        match (p, q) {
            (Point::Infinity, _) => *q,
            (_, Point::Infinity) => *p,
            (Point::Affine { x: x1, y: y1 }, Point::Affine { x: x2, y: y2 }) => {
                if x1 == x2 {
                    if y1 == y2 {
                        return self.double(p);
                    }
                    // q = -p  (negative of (x, y) is (x, x + y))
                    return Point::Infinity;
                }
                let lambda = y1.add(y2).mul(&x1.add(x2).inverse());
                let x3 = lambda.square().add(&lambda).add(x1).add(x2).add(&self.a);
                let y3 = lambda.mul(&x1.add(&x3)).add(&x3).add(y1);
                Point::affine(x3, y3)
            }
        }
    }

    /// Affine point doubling.
    pub fn double(&self, p: &Point) -> Point {
        match p {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => {
                if x.is_zero() {
                    // 2(0, y) = infinity on these curves.
                    return Point::Infinity;
                }
                let lambda = x.add(&y.mul(&x.inverse()));
                let x3 = lambda.square().add(&lambda).add(&self.a);
                let y3 = x.square().add(&lambda.add(&Gf571::ONE).mul(&x3));
                Point::affine(x3, y3)
            }
        }
    }

    /// Negates a point: `-(x, y) = (x, x + y)`.
    pub fn negate(&self, p: &Point) -> Point {
        match p {
            Point::Infinity => Point::Infinity,
            Point::Affine { x, y } => Point::affine(*x, x.add(y)),
        }
    }

    /// `p + q` for a López–Dahab `p` and an affine `q`, with 8
    /// multiplications, 5 squarings and no inversion: Hankerson, Menezes and
    /// Vanstone, *Guide to Elliptic Curve Cryptography*, Algorithm 3.25, with
    /// sect571r1's `a = 1`. The exceptional cases are exact: `p = q` takes the
    /// doubling branch and `p = −q` gives infinity.
    pub fn add_mixed(&self, p: &LdPoint, q: &Point) -> LdPoint {
        let (x2, y2) = match q {
            Point::Infinity => return *p,
            Point::Affine { x, y } => (x, y),
        };
        if p.is_infinity() {
            return LdPoint::from_affine(q);
        }
        // HMV's B and A: the x and y differences, scaled by Z1 and Z1².
        let z1_sq = p.z.square();
        let dx = p.x.add(&p.z.mul(x2));
        let dy = p.y.add(&z1_sq.mul(y2));
        if dx.is_zero() {
            // Same x: q = p, or q = −p.
            return if dy.is_zero() {
                self.double_ld(&LdPoint::from_affine(q))
            } else {
                LdPoint::INFINITY
            };
        }
        let c = p.z.mul(&dx);
        let z3 = c.square();
        let e = c.mul(&dy);
        // X3 = D + A² + E, where D = B²·(C + a·Z1²) and a = 1.
        let x3 = dx.square().mul(&c.add(&z1_sq)).add(&dy.square()).add(&e);
        let f = x2.mul(&z3).add(&x3);
        let g = z3.square().mul(&x2.add(y2));
        let y3 = e.add(&z3).mul(&f).add(&g);
        LdPoint { x: x3, y: y3, z: z3 }
    }

    /// `2·p` in López–Dahab coordinates, with 4 multiplications and 5
    /// squarings (HMV Algorithm 3.24, `a = 1`): `Z3 = X1²·Z1²`,
    /// `X3 = X1⁴ + b·Z1⁴` and `Y3 = b·Z1⁴·Z3 + X3·(Z3 + Y1² + b·Z1⁴)`.
    /// `Z3 = 0`, infinity, exactly when `p` is infinity or the point of order
    /// two (`X1 = 0`).
    fn double_ld(&self, p: &LdPoint) -> LdPoint {
        let x1_sq = p.x.square();
        let z1_sq = p.z.square();
        let bz4 = self.b.mul(&z1_sq.square());
        let z3 = x1_sq.mul(&z1_sq);
        let x3 = x1_sq.square().add(&bz4);
        let y3 = bz4.mul(&z3).add(&x3.mul(&z3.add(&p.y.square()).add(&bz4)));
        LdPoint { x: x3, y: y3, z: z3 }
    }

    /// The affine points 2^i·G for `i < 571`, at index `i`: `k·G` for any
    /// `k < 2^571` is the sum of those at `k`'s set bits. Built on first use
    /// by López–Dahab doubling and one shared inversion (`affine_all`),
    /// and shared by the process (571 points, ~87 KB).
    pub fn generator_doublings() -> &'static [Point] {
        static DOUBLINGS: OnceLock<Vec<Point>> = OnceLock::new();
        DOUBLINGS.get_or_init(|| {
            let curve = Curve::sect571r1();
            let g = LdPoint::from_affine(&curve.generator());
            let doublings: Vec<LdPoint> =
                std::iter::successors(Some(g), |p| Some(curve.double_ld(p))).take(DEGREE).collect();
            affine_all(&doublings)
        })
    }

    /// Double-and-add scalar multiplication (verification reference only; the
    /// victim uses [`Curve::montgomery_ladder`]).
    pub fn scalar_mul_reference(&self, k: &Scalar, p: &Point) -> Point {
        let mut acc = Point::Infinity;
        for bit in k.bits_msb_first() {
            acc = self.double(&acc);
            if bit {
                acc = self.add(&acc, p);
            }
        }
        acc
    }

    /// The Montgomery-ladder scalar multiplication used by the vulnerable
    /// OpenSSL 1.0.1e implementation, returning both the result and the
    /// per-iteration [`LadderStep`] trace describing which branch direction
    /// was taken — i.e. exactly the secret-dependent control flow that leaks
    /// through the instruction cache.
    pub fn montgomery_ladder(&self, k: &Scalar, p: &Point) -> (Point, Vec<LadderStep>) {
        let bits = k.bits_msb_first();
        if bits.is_empty() {
            return (Point::Infinity, Vec::new());
        }
        let (x, y) = match p {
            Point::Infinity => return (Point::Infinity, Vec::new()),
            Point::Affine { x, y } => (*x, *y),
        };
        if bits.len() == 1 {
            return (*p, Vec::new());
        }

        // Initialisation: X1/Z1 <- P, X2/Z2 <- 2P (projective x-only).
        let mut x1 = x;
        let mut z1 = Gf571::ONE;
        let mut x2 = x.square().square().add(&self.b); // x^4 + b
        let mut z2 = x.square();

        let mut steps = Vec::with_capacity(bits.len() - 1);
        for &bit in &bits[1..] {
            if bit {
                // (X1,Z1) += (X2,Z2); (X2,Z2) doubled.
                madd(&x, &mut x1, &mut z1, &x2, &z2);
                mdouble(&self.b, &mut x2, &mut z2);
            } else {
                // (X2,Z2) += (X1,Z1); (X1,Z1) doubled.
                madd(&x, &mut x2, &mut z2, &x1, &z1);
                mdouble(&self.b, &mut x1, &mut z1);
            }
            steps.push(LadderStep { bit });
        }

        (self.mxy(&x, &y, &x1, &z1, &x2, &z2), steps)
    }

    /// Recovers the affine result from the ladder's projective state
    /// (OpenSSL's `gf2m_Mxy`).
    fn mxy(&self, x: &Gf571, y: &Gf571, x1: &Gf571, z1: &Gf571, x2: &Gf571, z2: &Gf571) -> Point {
        if z1.is_zero() {
            return Point::Infinity;
        }
        if z2.is_zero() {
            return Point::affine(*x, x.add(y));
        }
        let t3 = z1.mul(z2);
        let z1x = z1.mul(x).add(x1); // z1*x + x1
        let z2x = z2.mul(x);
        let x1t = x1.mul(&z2x); // x1 * (x*z2)
        let z2s = z2x.add(x2).mul(&z1x); // (x*z2 + x2) * (x*z1 + x1)
        let t4 = x.square().add(y).mul(&t3).add(&z2s);
        let t3x = t3.mul(x);
        let t3inv = t3x.inverse();
        let t4 = t3inv.mul(&t4);
        let x_out = x1t.mul(&t3inv);
        let y_out = x_out.add(x).mul(&t4).add(y);
        Point::affine(x_out, y_out)
    }
}

/// One Montgomery-ladder iteration: which direction the secret-dependent
/// branch took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LadderStep {
    /// The key bit processed by this iteration (`true` executes the
    /// `MAdd1`/`MDouble1` block, `false` the `MAdd0`/`MDouble0` block of
    /// Figure 8).
    pub bit: bool,
}

/// Madd: (X1, Z1) <- (X1, Z1) + (X2, Z2), given the affine x of the base
/// point (the invariant difference of the two ladder registers).
fn madd(x: &Gf571, x1: &mut Gf571, z1: &mut Gf571, x2: &Gf571, z2: &Gf571) {
    let t1 = x1.mul(z2);
    let t2 = x2.mul(z1);
    let z_new = t1.add(&t2).square();
    let x_new = x.mul(&z_new).add(&t1.mul(&t2));
    *x1 = x_new;
    *z1 = z_new;
}

/// Mdouble: (X, Z) <- 2 * (X, Z).
fn mdouble(b: &Gf571, x: &mut Gf571, z: &mut Gf571) {
    let x_sq = x.square();
    let z_sq = z.square();
    let x_new = x_sq.square().add(&b.mul(&z_sq.square()));
    let z_new = x_sq.mul(&z_sq);
    *x = x_new;
    *z = z_new;
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn generator_is_on_curve() {
        let curve = Curve::sect571r1();
        assert!(curve.is_on_curve(&curve.generator()));
        assert!(curve.is_on_curve(&Point::Infinity));
    }

    #[test]
    fn doubling_and_addition_stay_on_curve() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        let g2 = curve.double(&g);
        let g3 = curve.add(&g2, &g);
        assert!(curve.is_on_curve(&g2));
        assert!(curve.is_on_curve(&g3));
        assert_ne!(g2, g);
        assert_ne!(g3, g2);
    }

    #[test]
    fn addition_with_identity_and_inverse() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        assert_eq!(curve.add(&g, &Point::Infinity), g);
        assert_eq!(curve.add(&Point::Infinity, &g), g);
        let neg = curve.negate(&g);
        assert!(curve.is_on_curve(&neg));
        assert!(curve.add(&g, &neg).is_infinity());
    }

    #[test]
    fn reference_scalar_mul_small_multiples() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        let g2 = curve.double(&g);
        let g4 = curve.double(&g2);
        let g5 = curve.add(&g4, &g);
        assert_eq!(curve.scalar_mul_reference(&Scalar::from_u64(2), &g), g2);
        assert_eq!(curve.scalar_mul_reference(&Scalar::from_u64(5), &g), g5);
        assert!(curve.scalar_mul_reference(&Scalar::zero(), &g).is_infinity());
    }

    #[test]
    fn ladder_matches_reference_for_small_scalars() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        for k in [1u64, 2, 3, 7, 12, 97, 1023] {
            let scalar = Scalar::from_u64(k);
            let (ladder, steps) = curve.montgomery_ladder(&scalar, &g);
            let reference = curve.scalar_mul_reference(&scalar, &g);
            assert_eq!(ladder, reference, "k = {k}");
            assert_eq!(steps.len(), scalar.bit_length().saturating_sub(1));
        }
    }

    #[test]
    fn ladder_matches_reference_for_random_scalar() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        let mut rng = SmallRng::seed_from_u64(7);
        // A moderately sized scalar keeps the reference computation fast
        // while still exercising hundreds of ladder iterations.
        let k = Scalar::from_u64(rng.gen::<u64>() | (1 << 63));
        let (ladder, _) = curve.montgomery_ladder(&k, &g);
        assert_eq!(ladder, curve.scalar_mul_reference(&k, &g));
    }

    #[test]
    fn ladder_trace_matches_key_bits() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        let k = Scalar::from_u64(0b1011_0010_1101);
        let (_, steps) = curve.montgomery_ladder(&k, &g);
        let expected: Vec<bool> = k.bits_msb_first()[1..].to_vec();
        let observed: Vec<bool> = steps.iter().map(|s| s.bit).collect();
        assert_eq!(observed, expected);
    }

    /// A random non-zero field element.
    fn random_element(rng: &mut SmallRng) -> Gf571 {
        loop {
            let mut limbs: [u64; 9] = std::array::from_fn(|_| rng.gen());
            limbs[8] &= (1 << (DEGREE % 64)) - 1;
            let e = Gf571::from_limbs(limbs);
            if !e.is_zero() {
                return e;
            }
        }
    }

    /// The affine `p` as López–Dahab `(λx : λ²y : λ)`.
    fn scaled(p: &Point, lambda: &Gf571) -> LdPoint {
        let (x, y) = (p.x().expect("affine"), p.y().expect("affine"));
        LdPoint { x: lambda.mul(&x), y: lambda.square().mul(&y), z: *lambda }
    }

    /// The affine point `(X/Z, Y/Z²)` of `p`.
    fn affine(p: &LdPoint) -> Point {
        if p.is_infinity() {
            return Point::Infinity;
        }
        let z_inv = p.z.inverse();
        Point::affine(p.x.mul(&z_inv), p.y.mul(&z_inv.square()))
    }

    #[test]
    fn mixed_addition_matches_affine_addition() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..6 {
            let mut random_point =
                || curve.montgomery_ladder(&Scalar::random_with_bit_length(&mut rng, 64), &g).0;
            let (p, q) = (random_point(), random_point());
            let p_ld = scaled(&p, &random_element(&mut rng));
            let sum = curve.add_mixed(&p_ld, &q);
            assert_eq!(affine(&sum), curve.add(&p, &q));
            assert!(sum.has_affine_x(&curve.add(&p, &q).x().expect("affine")));
            assert!(!sum.has_affine_x(&p.x().expect("affine")));
            // p = q takes the doubling branch; p = −q gives infinity.
            assert_eq!(affine(&curve.add_mixed(&p_ld, &p)), curve.double(&p));
            assert!(curve.add_mixed(&p_ld, &curve.negate(&p)).is_infinity());
            // Either operand at infinity.
            assert_eq!(affine(&curve.add_mixed(&LdPoint::INFINITY, &q)), q);
            assert_eq!(affine(&curve.add_mixed(&p_ld, &Point::Infinity)), p);
        }
        assert!(!LdPoint::INFINITY.has_affine_x(&Gf571::ZERO));
    }

    #[test]
    fn generator_doublings_are_powers_of_two_times_g() {
        let curve = Curve::sect571r1();
        let table = Curve::generator_doublings();
        assert_eq!(table.len(), DEGREE);
        assert_eq!(table[0], curve.generator());
        for (i, pair) in table.windows(2).enumerate() {
            assert_eq!(pair[1], curve.double(&pair[0]), "i = {}", i + 1);
        }
        for i in [1usize, 63, 569, 570] {
            let mut limbs = [0u64; 9];
            limbs[i / 64] = 1 << (i % 64);
            let k = Scalar::new(crate::scalar::U576::from_limbs(limbs));
            assert_eq!(table[i], curve.montgomery_ladder(&k, &curve.generator()).0, "i = {i}");
        }
    }

    #[test]
    fn ladder_of_zero_and_one() {
        let curve = Curve::sect571r1();
        let g = curve.generator();
        assert!(curve.montgomery_ladder(&Scalar::zero(), &g).0.is_infinity());
        assert_eq!(curve.montgomery_ladder(&Scalar::one(), &g).0, g);
    }
}
