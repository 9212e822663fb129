import pytest

from tailbounds._record import Record, replace


class Point(Record):
    x: int
    y: int = 0

    def __post_init__(self):
        if self.x < 0:
            raise ValueError("x must be nonnegative")


class Other(Record):
    x: int
    y: int = 0


class TestRecord:
    def test_positional_keyword_and_default_fields(self):
        assert Point(1, 2) == Point(x=1, y=2) == Point(1, y=2)
        assert Point(1).y == 0

    def test_bad_arguments_raise_type_error(self):
        for args, kwargs in [((), {}), ((1, 2, 3), {}), ((1,), {"x": 1}), ((1,), {"z": 3})]:
            with pytest.raises(TypeError):
                Point(*args, **kwargs)

    def test_post_init_runs(self):
        with pytest.raises(ValueError):
            Point(-1)

    def test_value_equality_and_hash_within_one_class(self):
        assert Point(1, 2) != Point(1, 3)
        assert Point(1, 2) != Other(1, 2)
        assert Point(1, 2) != (1, 2)
        assert hash(Point(1, 2)) == hash(Point(1, 2))
        assert len({Point(1, 2), Point(1, 2), Point(2, 1)}) == 2

    def test_repr_lists_fields(self):
        assert repr(Point(1, 2)) == "Point(x=1, y=2)"

    def test_immutable(self):
        p = Point(1, 2)
        with pytest.raises(AttributeError):
            p.x = 5
        with pytest.raises(AttributeError):
            del p.y
        assert p == Point(1, 2)

    def test_replace_revalidates(self):
        assert replace(Point(1, 2), y=7) == Point(1, 7)
        with pytest.raises(ValueError):
            replace(Point(1, 2), x=-1)
        with pytest.raises(TypeError):
            replace(Point(1, 2), z=3)
