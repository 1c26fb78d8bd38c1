//! Golden snapshot of a model graph's JSON document: the serialized
//! CNN-LSTM zoo model, compared byte for byte with the checked-in file.
//! It pins the document layout (`{"name", "graph": {"nodes", "edges":
//! [[from, to, {"bytes"}]]}}`), the order of layers and edges, and the
//! multi-input fusion layer `fuse.cat`.
//!
//! To regenerate after an intentional change:
//! `UPDATE_GOLDEN=1 cargo test -p h2h-model --test golden_json`.

use std::path::PathBuf;

use h2h_model::ModelGraph;

#[test]
fn cnn_lstm_json_snapshot() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cnn_lstm.json");
    let model = h2h_model::zoo::cnn_lstm();
    let actual = serde_json::to_string(&model).unwrap();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, &actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); run with UPDATE_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert!(
        expected == actual,
        "model JSON drifted from tests/golden/cnn_lstm.json — if intentional, regenerate \
         with UPDATE_GOLDEN=1\n--- expected ---\n{expected}\n--- actual ---\n{actual}"
    );
    // Reading the document back reproduces it.
    let back: ModelGraph = serde_json::from_str(&expected).unwrap();
    assert_eq!(serde_json::to_string(&back).unwrap(), expected);
}

/// The golden document with its first occurrence of `field` patched.
fn patched(field: &str, to: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cnn_lstm.json");
    let doc = std::fs::read_to_string(path).unwrap();
    assert!(doc.contains(field), "{field}");
    doc.replacen(field, to, 1)
}

#[test]
fn reading_refuses_a_zero_kernel_as_the_builder_does() {
    let err = serde_json::from_str::<ModelGraph>(&patched(r#""kernel_h":3"#, r#""kernel_h":0"#))
        .expect_err("a zero kernel is refused");
    assert!(
        err.to_string()
            .contains("layer `video.conv1` has zero kernel size"),
        "{err}"
    );
}

/// `video.conv1` reads `video_in`, a 48-channel feature map; the
/// builder derives its input channels from it.
fn refuses_in_channels(patched_to: &str) {
    let doc = patched(r#""in_channels":48"#, patched_to);
    let err = serde_json::from_str::<ModelGraph>(&doc).expect_err("the producer gives 48 channels");
    assert!(
        err.to_string()
            .contains("layer `video.conv1` disagrees with its producers"),
        "{err}"
    );
}

#[test]
fn reading_refuses_zero_input_channels_the_producer_does_not_give() {
    refuses_in_channels(r#""in_channels":0"#);
}

#[test]
fn reading_refuses_input_channels_the_producer_does_not_give() {
    refuses_in_channels(r#""in_channels":7"#);
}

#[test]
fn reading_refuses_a_zero_stride_as_the_builder_does() {
    let err = serde_json::from_str::<ModelGraph>(&patched(r#""stride":1"#, r#""stride":0"#))
        .expect_err("a zero stride is refused");
    assert!(
        err.to_string().contains("layer `video.conv1` has stride 0"),
        "{err}"
    );
}
