from recovery_sets.field_core import field
from recovery_sets.constructions import canonical_target, construct
from recovery_sets.verifier import verify_family, verify_recovery_set


class TestVerifyRecoverySet:
    def test_basis_points(self):
        target = canonical_target(2, 4, 2)
        assert verify_recovery_set([(0, 0, 1, 0), (0, 0, 0, 1)], target, field(2))

    def test_zero_column_plus_run(self):
        # (x,0) together with d consecutive powers spans the target
        from recovery_sets.constructions import row_sets
        from recovery_sets.geometry import Layout

        # the row (1, 0) of F_2^2
        sets, _ = row_sets(Layout(2, 5, 3), 1)
        target = canonical_target(2, 5, 3)
        f2 = field(2)
        assert all(verify_recovery_set(list(s), target, f2) for s in sets)

    def test_single_point_fails(self):
        target = canonical_target(2, 4, 2)
        assert not verify_recovery_set([(0, 0, 1, 0)], target, field(2))


class TestVerifyFamily:
    def test_valid_construction(self):
        cert = verify_family(construct(2, 4, 2))
        assert cert.valid and cert.family_size == 5
        assert cert.points_total == 15
        assert dict(cert.set_sizes) == {2: 1, 3: 3, 4: 1}

    def test_large_q(self):
        cert = verify_family(construct(7, 4, 2))
        assert cert.valid and cert.family_size == 134
        assert cert.points_used == cert.points_total == 400

    def test_duplicate_point_detected(self):
        fam = construct(2, 4, 2)
        p = next(iter(fam.sets[1]))
        fam.sets[0] = frozenset(set(fam.sets[0]) | {p})
        cert = verify_family(fam)
        assert not cert.disjoint_ok and not cert.valid

    def test_non_spanning_detected(self):
        fam = construct(2, 4, 2)
        fam.sets[0] = frozenset(list(fam.sets[0])[:1])
        cert = verify_family(fam)
        assert not cert.spanning_ok

    def test_foreign_point_detected(self):
        fam = construct(2, 4, 2)
        fam.sets[0] = frozenset(set(fam.sets[0]) | {(0, 1, 1)})
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_non_canonical_rep_detected(self):
        fam = construct(3, 3, 2)
        s = set(fam.sets[0])
        p = s.pop()
        f3 = field(3)
        s.add(tuple(f3.mul(2, c) for c in p))
        fam.sets[0] = frozenset(s)
        cert = verify_family(fam)
        assert not cert.universe_ok

    def test_point_usage_bounded(self):
        cert = verify_family(construct(2, 6, 4))
        assert cert.points_used <= cert.points_total == 63
