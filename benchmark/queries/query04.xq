(: XMark Q4 — auctions where person1 bid before person2. Uses the
   following-sibling axis, which the GCX baseline does not support:
   the paper's Figure 4(c) reports "N/A" for GCX on this query. :)
<out>{
  for $b in /site/open_auctions/open_auction
    [./bidder[./personref/personref_person/text() = "person1"]
     /following-sibling::bidder/personref/personref_person/text() = "person2"]
  return <history>{$b/reserve/text()}</history>
}</out>
