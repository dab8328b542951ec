"""Truth oracle for the feature files: the generator's noiseless value of each bucket row.

The generator writes every coefficient to ``truth_manifest.json`` and preprocess writes
every fitted transform to ``manifest.json``. Together they give, for each row of a bucket,
the value the generator measures before its noise:

1. invert the min-max scaling of the ``sensor_*`` columns (the datetime features carry no
   signal, so they get weight 0) and weight them with ``sensor_weights``;
2. add each categorical column's ``cat_offsets`` entry through its one-hot slot;
3. z = (v_1 + ... + v_{n-1} + 2*v_n) / (n + 1);
4. slope * z + intercept of the row's (kqi, type, stage) group.

A batch's every wafer carries the value of its monitor wafer, whose sensors a product
wafer's are plus jitter, so only monitor rows are reproduced to float32 rounding.
A row whose step hits a one-hot UNKNOWN slot has no known offset and gets NaN.
"""

from __future__ import annotations

import numpy as np

from wafersense.domain import DATETIME_FEATURES
from wafersense.preprocess import Bucket, unjoin


def truth_values(bucket: Bucket, manifest: dict, truth: dict) -> np.ndarray:
    """The generator's noiseless value of each row of ``bucket``, from the features'
    ``manifest.json`` and the generator's ``truth_manifest.json``."""
    names = [(manifest["numeric_names"] + list(DATETIME_FEATURES))[i]
             for i in manifest["kept_numeric"]]
    weights = np.array([truth["sensor_weights"][int(name.removeprefix("sensor_"))]
                        if name.startswith("sensor_") else 0.0 for name in names])
    low, high = np.array(manifest["scaler_min"]), np.array(manifest["scaler_max"])
    offsets = []  # per one-hot slot, each column's labels then its UNKNOWN slot
    for k, labels in zip(manifest["kept_sensor_cat"], manifest["sensor_vocab"]):
        by_label = truth["cat_offsets"][manifest["sensor_cat_names"][k]]
        offsets += [by_label[label] for label in labels] + [np.nan]
    steps, _ = unjoin(bucket.features.astype(np.float64), bucket.n_steps,
                      manifest["s_width"], manifest["m_width"])
    numeric, onehot = steps[..., :len(names)], steps[..., len(names):]
    v = (numeric * (high - low) + low) @ weights + np.where(onehot > 0, offsets, 0.0).sum(-1)
    z = (v.sum(axis=1) + v[:, -1]) / (bucket.n_steps + 1)
    groups = [truth["groups"]["|".join(key)]
              for key in zip(bucket.kqi, bucket.mtype, bucket.stage)]
    return np.array([g["slope"] for g in groups]) * z + np.array([g["intercept"] for g in groups])
