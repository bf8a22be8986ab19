// In-flight HTML instrumentation: the rewriting step of Figure 1. Given an
// HTML body and an InjectionPlan, produces the modified document that the
// proxy forwards to the client. Every insertion is content-preserving — the
// original markup survives byte-for-byte modulo attribute re-quoting.
#ifndef ROBODET_SRC_HTML_INJECTOR_H_
#define ROBODET_SRC_HTML_INJECTOR_H_

#include <string>
#include <string_view>

#include "src/html/document.h"

namespace robodet {

// What to weave into one page. All URLs are absolute; empty fields skip the
// corresponding injection.
struct InjectionPlan {
  // External beacon script (Figure 1's ./index_0729395150.js).
  std::string beacon_script_url;
  // Installed as <body onmousemove="..."> (Figure 1), e.g. "return f();".
  std::string mouse_handler_code;
  // Also install the handler as onclick on every <a href> that has no
  // onclick of its own (the paper's alternative hook); applied in addition
  // to the body handler when set.
  bool hook_links = false;

  // Inline script that echoes the client's user agent back to the server
  // (Figure 1's second <script> block). Empty skips. It must not contain
  // "</": the element would end early, and the markup after that point
  // would no longer be what the plan says (nor what `refs` records).
  std::string ua_echo_script;

  // Dynamically named empty stylesheet probe (§2.2).
  std::string css_probe_url;

  // Silent audio probe (§2.2: "one can also use silent audio files or
  // 1-pixel transparent images for the same purpose").
  std::string audio_probe_url;

  // Hidden-link trap (§2.2): a transparent 1x1 image wrapped in a link.
  std::string hidden_link_url;
  std::string transparent_image_url;
};

struct InjectionResult {
  std::string html;
  // Bytes added by instrumentation; feeds the §3.2 overhead accounting.
  size_t added_bytes = 0;
  // The served refs of `html`, equal to CollectServedRefs(html) — the
  // page's own and the insertions', as spans of `html` in document order —
  // found during the rewrite instead of by reading the output again.
  ServedRefs refs;
};

// Applies `plan` to `html`. Insertion points follow the paper's example:
// the beacon <script> and CSS probe go as early as possible (inside <head>
// if present, else before <body>, else prepended); the mouse handler is an
// onmousemove attribute on the first <body> (a page without one serves no
// handler); the UA-echo script and hidden link go inside <body> (appended
// before </body> or at document end).
//
// One streaming pass over the zero-copy token stream appends into one
// reserved output buffer. The output must equal, byte for byte, that of
// the tokenize→edit→serialize reference in tests/html/reference_rewriter
// (html_streaming_parity_test checks it), and `refs` must equal
// CollectServedRefs of the output (it and html_fuzz_test check that).
InjectionResult InstrumentHtml(std::string_view html, const InjectionPlan& plan);

}  // namespace robodet

#endif  // ROBODET_SRC_HTML_INJECTOR_H_
