import pytest

from repro.common import serde
from repro.common.errors import SerdeError


class TestRoundTrip:
    @pytest.mark.parametrize(
        "value",
        [
            None,
            True,
            False,
            0,
            1,
            -1,
            2**40,
            -(2**40),
            0.0,
            3.14159,
            -1e300,
            "",
            "hello",
            "unicode: héllo ☂",
            b"",
            b"\x00\xff",
            [],
            [1, 2, 3],
            ["mixed", 1, None, True],
            {},
            {"a": 1},
            {"nested": {"list": [1, [2, {"deep": None}]]}},
        ],
    )
    def test_round_trip(self, value):
        assert serde.decode(serde.encode(value)) == value

    def test_tuple_decodes_as_list(self):
        assert serde.decode(serde.encode((1, 2))) == [1, 2]

    def test_large_structure(self):
        value = {"rows": [{"i": i, "name": f"n{i}"} for i in range(500)]}
        assert serde.decode(serde.encode(value)) == value


class TestErrors:
    def test_unserializable_type(self):
        with pytest.raises(SerdeError):
            serde.encode(object())

    def test_non_string_map_key(self):
        with pytest.raises(SerdeError):
            serde.encode({1: "a"})

    def test_truncated_input(self):
        data = serde.encode({"a": [1, 2, 3]})
        with pytest.raises(SerdeError):
            serde.decode(data[:-2])

    def test_trailing_bytes(self):
        data = serde.encode(42) + b"\x00"
        with pytest.raises(SerdeError):
            serde.decode(data)

    def test_unknown_tag(self):
        with pytest.raises(SerdeError):
            serde.decode(b"\xf0")

    def test_empty_input(self):
        with pytest.raises(SerdeError):
            serde.decode(b"")


class TestCompactness:
    def test_small_ints_one_tag_plus_one_byte(self):
        assert len(serde.encode(5)) == 2

    def test_strings_cost_length_plus_overhead(self):
        assert len(serde.encode("abcd")) == 6  # tag + varint + 4 bytes

    def test_encoded_size_matches_encode(self):
        value = {"k": [1.5, "x", None]}
        assert serde.encoded_size(value) == len(serde.encode(value))

    def test_dict_encoding_smaller_than_json_like(self):
        import json

        value = {"city": "san_francisco", "count": 12345, "ratio": 0.25}
        assert len(serde.encode(value)) < len(json.dumps(value).encode())


class TestEncodeKey:
    @pytest.mark.parametrize(
        "a, b",
        [
            (5, 5.0),
            (1, True),
            (0, -0.0),
            (0.0, -0.0),
            (False, -0.0),
            (("t", 0), ("t", -0.0)),
            (complex(-0.0, 1.0), complex(0.0, 1.0)),
        ],
    )
    def test_equal_values_share_bytes(self, a, b):
        assert a == b
        assert serde.encode_key(a) == serde.encode_key(b)

    def test_negative_zero_survives_plain_encode(self):
        # Only the equality-canonical key folds the sign; the value codec
        # still round-trips -0.0 bit for bit.
        assert str(serde.decode(serde.encode(-0.0))) == "-0.0"
