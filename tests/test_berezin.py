from starbundle.berezin import CP1Function, commutator_decay


def test_commutator_decay_first_order_law():
    # k [T_f, T_g] = s i T_{f,g} + O(1/k) (Bordemann-Meinrenken-Schlichenmaier,
    # Comm. Math. Phys. 165, 1994): the defect norm falls with k
    report = commutator_decay(
        CP1Function.real_part(), CP1Function.imag_part(), [4, 8, 16, 32, 64]
    )
    assert report.sign == -1
    assert report.slope < -0.5


def test_equal_functions_hash_alike():
    # 1 = (1 + |z|^2) / (1 + |z|^2), written at level 0 and at level 1
    one = CP1Function.one()
    raised = CP1Function({(0, 0, 1): 1, (1, 1, 1): 1})
    assert one == raised
    assert len({one, raised}) == 1
    assert CP1Function.height() + CP1Function({(0, 0, 1): 1}) in {one}
