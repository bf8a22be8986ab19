// HTML inputs shared by the html tests: a curated corpus that spans the
// tokenizer's grammar and its forgiveness rules, and seeded generators of
// messy and served-ref-dense tag soup.
#ifndef ROBODET_TESTS_HTML_HTML_CORPUS_H_
#define ROBODET_TESTS_HTML_HTML_CORPUS_H_

#include <iterator>
#include <string>

#include "src/util/rng.h"

namespace robodet {

// ≥20 documents spanning the tokenizer's grammar and its forgiveness rules.
inline const char* const kCorpus[] = {
    // 1: canonical well-formed page.
    "<!DOCTYPE html><html><head><title>T</title></head>"
    "<body><p>hello</p><a href=\"/x\">x</a></body></html>",
    // 2: no head.
    "<html><body><p>no head</p></body></html>",
    // 3: no body, no head.
    "<div><span>bare fragment</span></div>",
    // 4: empty document.
    "",
    // 5: text only.
    "just words, no markup at all",
    // 6: comments, including one that never closes.
    "<html><!-- a comment --><body>x</body><!-- unterminated",
    // 7: doctype soup.
    "<!doctype HTML PUBLIC \"-//W3C//DTD HTML 4.01//EN\"><html><body>y</body></html>",
    // 8: script with markup inside (raw text).
    "<head><script>if (a < b) document.write(\"<p>hi</p>\");</script></head><body>z</body>",
    // 9: style with markup inside.
    "<style>a > b { color: red; }</style><body>s</body>",
    // 10: script that never closes.
    "<body><script>var x = 1; // and the tag never ends",
    // 11: uppercase everything.
    "<HTML><HEAD><TITLE>UP</TITLE></HEAD><BODY BGCOLOR=\"#fff\"><A HREF=\"/Y\">Y</A></BODY></HTML>",
    // 12: unquoted and single-quoted attributes.
    "<body text=black><a href=/plain class='c1'>go</a></body>",
    // 13: attribute values containing '>' and quotes.
    "<body><a href=\"/x?a>b\" title='say \"hi\"'>t</a></body>",
    // 14: valueless attributes and stray equals.
    "<body><input disabled readonly = ><a href>bare</a></body>",
    // 15: self-closing tags, with and without space.
    "<body><br/><img src=\"/i.png\" /><hr></body>",
    // 16: stray '<' characters and entities.
    "a < b && c << d <3 <<>> &amp; done",
    // 17: truncated tag at end of input.
    "<body><p>cut <a href=\"/x",
    // 18: truncated mid-attribute-value.
    "<body><img src=\"/half",
    // 19: end tags with attributes and self-closing end tags.
    "<body><p>x</p class=\"odd\"></body/></html>",
    // 20: body before head (pathological ordering).
    "<body>early</body><head><title>late</title></head>",
    // 21: multiple body tags — only the first takes the handler.
    "<body id=\"one\">a</body><body id=\"two\">b</body>",
    // 22: nested links with and without onclick.
    "<body><a href=\"/1\">1</a><a href=\"/2\" onclick=\"x()\">2</a>"
    "<a name=\"no-href\">3</a></body>",
    // 23: duplicate attributes.
    "<body class=\"a\" class=\"b\" onmousemove=\"old()\">dup</body>",
    // 24: mixed-case raw-text close tag (closes the script, as in browsers).
    "<body><script>var s = 1;</SCRIPT><p>after</p>",
    // 25: trailing '<'.
    "tail<",
    // 26: html close but no body close.
    "<html><body><p>unclosed</html>",
    // 27: script close tag with attributes.
    "<body><script>x()</script junk=\"1\"><p>rest</p></body>",
    // 28: comment that looks like a tag.
    "<!--<body>not a real body</body>--><div>real</div>",
};

// Generates messy-but-plausible HTML: random nesting, unclosed tags,
// stray '<', attribute soup, comments, scripts.
inline std::string GenerateMessyHtml(Rng& rng, size_t target_size) {
  static const char* const kTags[] = {"div", "p", "a", "img", "span", "table", "td",
                                      "body", "head", "html", "li", "script", "style"};
  static const char* const kFragments[] = {
      "plain text ",       "<",           "<<",          "a < b ",
      "<!-- comment -->",  "<!DOCTYPE html>", "&amp; entity ", "\n\t ",
      "<a href=broken",    "quote\" in text ", "=",          "<3 hearts ",
  };
  std::string out;
  int open_depth = 0;
  while (out.size() < target_size) {
    switch (rng.UniformU64(6)) {
      case 0: {
        const char* tag = kTags[rng.UniformU64(13)];
        out += "<";
        out += tag;
        const size_t attrs = rng.UniformU64(3);
        for (size_t a = 0; a < attrs; ++a) {
          switch (rng.UniformU64(3)) {
            case 0:
              out += " href=\"/x" + std::to_string(rng.UniformU64(100)) + ".html\"";
              break;
            case 1:
              out += " class=c" + std::to_string(rng.UniformU64(10));
              break;
            default:
              out += " data-x='q" + std::to_string(rng.UniformU64(10)) + "'";
              break;
          }
        }
        out += rng.Bernoulli(0.15) ? "/>" : ">";
        ++open_depth;
        break;
      }
      case 1:
        if (open_depth > 0 && rng.Bernoulli(0.7)) {
          out += "</";
          out += kTags[rng.UniformU64(13)];
          out += ">";
          --open_depth;
        }
        break;
      case 2:
        out += kFragments[rng.UniformU64(12)];
        break;
      case 3:
        out += "<script>var x = 'a < b';</script>";
        break;
      case 4:
        out += "word" + std::to_string(rng.UniformU64(1000)) + " ";
        break;
      default:
        out += "<img src=\"/i" + std::to_string(rng.UniformU64(50)) + ".jpg\">";
        break;
    }
  }
  return out;
}

// Tag soup dense in the tags that carry served refs, spelled every way the
// collector must treat like HtmlDocument does: any tag or attribute case,
// duplicate and valueless attributes, single, double or no quotes, rel
// values that are and are not "stylesheet", raw-text elements holding
// markup, and truncation mid-tag.
inline std::string GenerateRefSoup(Rng& rng, size_t target_size) {
  static const char* const kTags[] = {"a",      "A",     "link",   "LINK",  "Link",
                                      "img",    "IMG",   "script", "SCRIPT", "bgsound",
                                      "audio",  "iframe", "FRAME",  "div",   "style"};
  static const char* const kAttrs[] = {"href", "HREF", "src", "Src", "rel", "REL", "onclick",
                                       "class"};
  static const char* const kValues[] = {"stylesheet", "StyleSheet", "alternate stylesheet",
                                        "/a.html",    "x.css",      "http://o.com/i.jpg",
                                        "",           "a>b",        "say \"hi\""};
  std::string out;
  while (out.size() < target_size) {
    switch (rng.UniformU64(4)) {
      case 0:
      case 1: {
        out += "<";
        out += kTags[rng.UniformU64(std::size(kTags))];
        const size_t attrs = rng.UniformU64(4);
        for (size_t a = 0; a < attrs; ++a) {
          out += " ";
          out += kAttrs[rng.UniformU64(std::size(kAttrs))];
          const std::string value = kValues[rng.UniformU64(std::size(kValues))];
          switch (rng.UniformU64(4)) {
            case 0:
              break;  // Valueless.
            case 1:
              out += "=\"" + value + "\"";
              break;
            case 2:
              out += " = '" + value + "'";
              break;
            default:
              out.append("=").append(value, 0, value.find(' '));
              break;
          }
        }
        out += rng.Bernoulli(0.2) ? "/>" : ">";
        break;
      }
      case 2:
        out += rng.Bernoulli(0.5) ? "</a>" : "</script>";
        break;
      default:
        out += GenerateMessyHtml(rng, 40);
        break;
    }
  }
  if (rng.Bernoulli(0.3)) {
    out += "<link rel=stylesheet href=\"/cut";  // Truncated mid-tag.
  }
  return out;
}

}  // namespace robodet

#endif  // ROBODET_TESTS_HTML_HTML_CORPUS_H_
