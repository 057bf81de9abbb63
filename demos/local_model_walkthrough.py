"""Walk through the formal-local model: tau powers, membership, colengths.

Run with:  python3 demos/local_model_walkthrough.py
"""

from frobstrat import (
    FiberPoint,
    LocalContext,
    colength,
    phi_image,
    right_multiply,
    submodule_contains,
    tau_power,
    verify_claims,
)

ctx = LocalContext.default(3)  # k[[t]] over k[[t^3]], right exponents < 9


def show(element, name):
    # element.terms is the normal form: (right exp, left exp, coefficient)
    terms = [f"{c if c != 1 else ''}t^{i}*t^{j}" for j, i, c in element.terms]
    print(f"  {name} = {' + '.join(terms)}   (left factor first)")


# The canonical filtration of the pulled-back direct image is generated by
# powers of tau = t*1 - 1*t.  In normal form every left exponent stays
# below p; multiplying on the right shifts the second exponent only.
print("tau powers at p = 3:")
for m in range(3):
    show(tau_power(ctx, m), f"tau^{m}")
print("right multiples of tau^2:")
for j in range(1, 4):
    show(right_multiply(tau_power(ctx, 2), j), f"tau^2 t^{j}")

# A colength-one submodule V of k[[t]] is named by a projective point.
# The element tau^2 t^j lies in the induced submodule exactly when its
# image series in k[t]/(t^3) vanishes.
print("\nmembership of tau^2 t^j, per fiber point:")
tau2 = tau_power(ctx, 2)
for lambdas in [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0)]:
    point = FiberPoint(lambdas, 3)
    members = [
        j for j in range(4) if submodule_contains(right_multiply(tau2, j), point)
    ]
    image = phi_image(tau2, point)
    print(
        f"  ({':'.join(map(str, lambdas))}): image of tau^2 = {image}, "
        f"members among j=0..3: {members}"
    )

# Those membership patterns are governed by which monomials V contains:
# tau^2 t^j enters the submodule exactly when t^j, ..., t^(p-1) all lie in
# V.  verify_claims(3) checks the criterion for j = 0, 1, 2, 3 over the
# whole projective plane.
print("\nmonomial criterion over all 13 points of P^2(F_3):")
agree = all(passed == total for _, passed, total in verify_claims(3))
print(f"  membership == monomial criterion for every point and shift: {agree}")

# The colength of the intersection with each filtration level is a matrix
# rank over F_3; it is what drives the polygon classification.
print("\ncolengths (level 1, level 2) per sample point:")
for lambdas in [(1, 0, 0), (0, 1, 0), (0, 0, 1)]:
    point = FiberPoint(lambdas, 3)
    print(
        f"  ({':'.join(map(str, lambdas))}): "
        f"({colength(ctx, point, 1)}, {colength(ctx, point, 2)})"
    )
