import json

import numpy as np

from sgnn import util as U


class TestArtifactWriter:
    def test_write_csv_bytes(self, tmp_path):
        path = tmp_path / "a.csv"
        U.write_csv(path, ["name", "x", "k", "empty"],
                    [["a", 0.1, 3, ""], {"empty": None, "k": -2, "x": np.float64(1e-17),
                                         "name": "b"}])
        assert path.read_bytes() == b"name,x,k,empty\r\na,0.1,3,\r\nb,1e-17,-2,\r\n"

    def test_append_adds_rows_without_a_second_header(self, tmp_path):
        path = tmp_path / "a.csv"
        U.write_csv(path, ["x", "k"], [])
        U.write_csv(path, ["x", "k"], [[2.0, 1]], append=True)
        U.write_csv(path, ["x", "k"], [{"x": 1 / 3, "k": 2}], append=True)
        assert path.read_bytes() == b"x,k\r\n2.0,1\r\n0.3333333333333333,2\r\n"
        assert U.read_csv(path) == [{"x": "2.0", "k": "1"}, {"x": "0.3333333333333333",
                                                              "k": "2"}]

    def test_floats_read_back_exactly(self, tmp_path):
        path = tmp_path / "a.csv"
        values = [np.pi, np.nextafter(1.0, 2.0), 5e-324, -0.0, np.float64(2) / 3]
        U.write_csv(path, ["v"], [[v] for v in values])
        assert [float(r["v"]) for r in U.read_csv(path)] == values

    def test_write_json_is_indented_with_sorted_keys(self, tmp_path):
        path = tmp_path / "a.json"
        U.write_json(path, {"b": [1, 2.5], "a": None})
        assert path.read_text() == '{\n "a": null,\n "b": [\n  1,\n  2.5\n ]\n}'
        assert json.loads(path.read_text()) == {"a": None, "b": [1, 2.5]}
